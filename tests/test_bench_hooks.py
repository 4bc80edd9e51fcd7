"""The benchmark's trace hooks still find every kgfuse name they wrap.

``perfbench/workloads.py`` replaces module attributes such as
``train.holdout_edges`` or ``objectives.sample_negatives`` by name; deleting
or renaming one of them breaks ``perfbench/run.py --trace 1``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracing import Hooks, Tracer

    hooks = Hooks()
    try:
        workloads._trace_hooks(hooks, Tracer())
        wrapped = list(hooks._saved)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in wrapped)
    finally:
        hooks.restore()
    assert wrapped
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
