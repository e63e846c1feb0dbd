"""Former home of the one-alphabet derived operators.

They are the hook operators of :mod:`cochar.hooks` at ``l = 0``.  The module
stays only because bench/tracer.py resolves ``cochar.operators`` when it
installs its span table; see the end of :mod:`cochar.schur`.
"""

from cochar.schur import _removed

grassmann_derived = _removed("grassmann_derived", "cochar.hooks.hook_grassmann_derived")
