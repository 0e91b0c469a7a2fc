"""The tracer wraps entry points wherever they are imported by name, computes
self times, counts from arguments, restores the originals and reports names
the program no longer has as absent."""

import time
import types

import spans
from spans import Target, Tracer


def fake_program():
    inner = types.ModuleType("inner")

    def work(items, pause=0.01):
        time.sleep(pause)
        return len(items)

    inner.work = work

    class Box:
        def size(self):
            return 3

    inner.Box = Box
    outer = types.ModuleType("outer")
    outer.work = work  # imported by name, as cli imports check_pom_axioms

    def main(items):
        time.sleep(0.01)
        return outer.work(items)

    outer.main = main
    return {"inner": inner, "outer": outer}


TARGETS = (
    Target("outer", "main"),
    Target("inner", "work", counts=(("inner.items", lambda b: len(b.arguments["items"])),)),
    Target("inner", "Box.size", span=False, counts=(("inner.sizes", None),)),
    Target("inner", "gone"),
    Target("missing_module", "anything"),
    Target("inner", "Gone.method"),
)


def test_wrap_time_count_and_restore():
    mods = fake_program()
    original = mods["inner"].work
    tracer = Tracer()
    tracer.install(mods, TARGETS)
    assert mods["outer"].work is mods["inner"].work is not original
    assert mods["outer"].main(["a", "b"]) == 2
    assert mods["inner"].Box().size() == 3
    tracer.uninstall()
    assert mods["inner"].work is original and mods["outer"].work is original
    assert "size" in vars(mods["inner"].Box)

    names = [s[0] for s in tracer.spans]
    assert names == ["outer.main", "inner.work"]
    assert tracer.spans[1][3] == 0  # work's parent is main
    self_times = tracer.self_times()
    assert 0.005 < self_times["outer.main"] < 0.05
    assert 0.005 < self_times["inner.work"] < 0.05
    assert tracer.counts["inner.items"] == 2 and tracer.counts["inner.sizes"] == 1
    assert tracer.absent == ["inner.gone", "missing_module.anything", "inner.Gone.method"]


def test_unreadable_arguments_are_absent_not_errors():
    mods = fake_program()
    tracer = Tracer()
    tracer.install(mods, (Target("inner", "work",
                                 counts=(("inner.pairs", lambda b: b.arguments["nope"]),)),))
    assert mods["inner"].work([1], pause=0) == 1
    tracer.uninstall()
    assert tracer.absent == ["inner.pairs (arguments of inner.work)"]


def test_every_metric_is_reported_for_each_round():
    tracer = Tracer()
    metrics = tracer.layer_metrics(rounds=2)
    assert set(metrics) == set(spans.TIME_METRICS) | set(spans.COUNT_METRICS)
    assert all(v == 0.0 for v in metrics.values())


def test_targets_cover_every_time_metric():
    wrapped = {t.name for t in spans.TARGETS if t.span}
    for metric, names in spans.TIME_METRICS.items():
        assert set(names) <= wrapped, metric
