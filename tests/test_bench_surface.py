"""The names perfbench's tracer patches must exist in foreco.

perfbench (``python3 perfbench/run.py --trace 1``) wraps foreco's functions
through module attributes such as ``evaluation.run_recovery``. Deleting or
renaming one breaks only traced benchmark runs, so this test installs the
patches the way a traced run does and checks that each name was replaced
and then restored.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


class RecordingTracer(tracing.Tracer):
    """A Tracer that notes each (module, attribute, original) it patches."""

    def __init__(self):
        super().__init__()
        self.replaced = []

    def patch(self, module, attr, name, on_result=None):
        self.replaced.append((module, attr, getattr(module, attr)))
        super().patch(module, attr, name, on_result)


def test_install_replaces_every_name_and_restore_puts_it_back():
    tracer = RecordingTracer()
    try:
        workloads.install(tracer)
        assert tracer.replaced
        for module, attr, original in tracer.replaced:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.restore()
    for module, attr, original in tracer.replaced:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
