"""The Figure 3 grid-planning example prints its pinned decisions.

``examples/battery_placement.py`` is the only home of the battery
reassignment use case, so this runs it end to end (about half a second)
and pins its output byte for byte: the seeded release, the two MBR
surplus estimates and the battery swap they justify.
"""

import runpy
from pathlib import Path

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "battery_placement.py"

EXPECTED = """\
sanitized release: (16, 16, 48), ε = 30

estimated group surplus from the private release:
  north-west:      125.7 kWh
  south-east:     4119.5 kWh

reassignment decisions:
  battery B1: drop ['NW-1', 'NW-2'] (126 kWh) -> gain ['SE-1', 'SE-2'] (4119 kWh)

B1 now serves: ['SE-1', 'SE-2']
"""


def test_battery_placement_prints_the_figure_3_story(capsys):
    runpy.run_path(str(EXAMPLE), run_name="__main__")
    assert capsys.readouterr().out == EXPECTED
