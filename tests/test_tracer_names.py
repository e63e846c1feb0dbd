"""Every name that ``bench/tracer.py`` wraps or reads, and every public name
of the package, still resolves.

The tracer installs its wrappers by name at run time, so a cleanup that
removes one of those names breaks ``bench/run.py --trace 1`` without failing
any other test.  The tracer is loaded from its path; nothing of it runs.
"""

import importlib
import importlib.util
from pathlib import Path

import cochar
from cochar import cli, partitions
from cochar.hooks import _hs_terms
from cochar.schur import _schur_terms
from cochar.series import Series

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cochar_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_resolves_exists():
    tracer = _load_tracer()
    for module, name in tracer.SPANS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    for name in tracer.COUNTED + tracer.STRIPS:
        assert callable(getattr(partitions, name, None)), name
    for name in tracer.SERIES_METHODS:  # __mul__, __rmul__, __pow__
        assert callable(getattr(Series, name, None)), name
    assert callable(cli._select_routes)
    for cached in (_hs_terms, _schur_terms):
        assert callable(cached.cache_clear) and callable(cached.cache_info)


def test_every_public_name_resolves():
    # the check suites resolve lazily, through the package's __getattr__
    assert {"verify", *cochar._VERIFY_NAMES} <= set(cochar.__all__)
    for name in cochar.__all__:
        assert getattr(cochar, name) is not None, name
    assert len(cochar.__all__) == 45
