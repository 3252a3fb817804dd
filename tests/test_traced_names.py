"""The benchmark's tracer (perfbench/spans.py) wraps qtheta callables by
name.  A traced callable that is deleted or renamed must fail here, in the
ordinary test run, and not only when a traced benchmark run starts."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # executed from its source text, so nothing is written under perfbench/
    mod = types.ModuleType("perfbench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_every_traced_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for module, path, metric in spans.TARGETS:
        try:
            _, _, value = spans.resolve(module, path)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{metric}: {type(exc).__name__}: {exc}")
            continue
        if not callable(value):
            missing.append(f"{metric}: not callable")
    assert not missing, missing
