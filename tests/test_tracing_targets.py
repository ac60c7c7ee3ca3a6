"""The traced benchmark wraps phimin functions by module attribute
(bench/tracing.py); a renamed or dropped name would make every traced
run fail, so each one is resolved here."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    missing = [f"{module.__name__}.{attr}"
               for modules, attr, _, _ in tracing._targets()
               for module in modules if not callable(getattr(module, attr, None))]
    assert missing == []
