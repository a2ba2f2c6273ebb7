"""Self-time subtraction and cross-process folding of span trees."""

import spans


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def perf_counter(self):
        return self.times.pop(0)


def record(recorder, monkeypatch, events):
    """Replay (action, name, time) events through a fake clock."""
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock([t for __, __, t in events]).perf_counter)
    for action, name, __ in events:
        recorder.enter(name) if action == "enter" else recorder.exit()


def test_self_time_subtracts_direct_children(monkeypatch):
    recorder = spans.Recorder()
    record(recorder, monkeypatch, [
        ("enter", "root", 0.0),
        ("enter", "a", 1.0),
        ("enter", "leaf", 2.0),
        ("exit", "leaf", 3.0),
        ("exit", "a", 4.0),
        ("enter", "b", 5.0),
        ("exit", "b", 6.0),
        ("exit", "root", 10.0),
    ])
    tree = recorder.tree
    assert tree[("root",)] == [1, 10.0, 6.0]
    assert tree[("root", "a")] == [1, 3.0, 2.0]
    assert tree[("root", "a", "leaf")] == [1, 1.0, 1.0]
    assert recorder.total("b") == 1.0 and recorder.self_time("root") == 6.0


def test_repeated_spans_aggregate_by_path(monkeypatch):
    recorder = spans.Recorder()
    record(recorder, monkeypatch, [
        ("enter", "fit", 0.0),
        ("enter", "step", 1.0), ("exit", "step", 2.0),
        ("enter", "step", 3.0), ("exit", "step", 5.0),
        ("exit", "fit", 6.0),
    ])
    assert recorder.calls("step") == 2
    assert recorder.total("step") == 3.0
    assert recorder.mean("step") == 1.5
    assert recorder.self_time("fit") == 3.0


def test_absorbed_worker_time_is_not_subtracted():
    parent = spans.Recorder()
    parent.add(("publish", "parallel.execute"), 1, 4.0, 4.0)
    worker = spans.Recorder()
    worker.add(("parallel.task",), 1, 3.5, 0.5)
    worker.count("pattern.windows", 10)
    parent.absorb(worker.snapshot(), ("publish", "parallel.execute"))
    parent.absorb(worker.snapshot(), ("publish", "parallel.execute"))
    assert parent.self_time("parallel.execute") == 4.0
    assert parent.tree[("publish", "parallel.execute", "parallel.task")] == [2, 7.0, 1.0]
    assert parent.counters["pattern.windows"] == 20


def test_wrappers_restore_the_original(tmp_path):
    class Target:
        def work(self, value):
            return value * 2

    original = Target.work
    with spans.Tracing(tmp_path) as tracing:
        tracing.wrap(Target, "work", "target.work")
        assert Target().work(3) == 6
        assert Target.work is not original
    assert Target.work is original
    assert tracing.recorder.calls("target.work") == 1


def test_traced_task_nests_in_process(tmp_path):
    with spans.Tracing(tmp_path) as tracing:
        tracing.recorder.enter("parallel.execute")
        task = spans.TracedTask(lambda payload: payload + 1, str(tmp_path), "tag")
        assert task(1) == 2
        tracing.recorder.exit()
    assert ("parallel.execute", "parallel.task") in tracing.recorder.tree
    assert not list(tmp_path.iterdir())
