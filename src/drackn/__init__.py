"""Antipodal covers of complete graphs and equiangular line systems.

Exact-arithmetic tools for three connected families of objects:

* covers of K_n with abelian deck group, given by arc matrices, verified
  combinatorially and spectrally (``covers``, ``constructions``);
* equiangular line systems and their Seidel matrices, with the conversions
  between covers and lines in both directions (``lines``);
* feasibility of parameter triples (n, r, c) and the enumeration of the
  closed-form parameter families (``feasibility``).

Everything is computed over Z, Q, quadratic extensions and prime-order
cyclotomic fields, so every verification is a proof, not an approximation.
Floating point appears in one place only: the count table of deck groups
of order up to 32 is a character transform over a prime field GF(q), whose
float64 matrix products of integer residues keep every sum below 2^51
(asserted), so each is exact and its floor residue mod q is the count.

Modules load on first use.  numpy is bound lazily as ``drackn.np``, and
every submodule but ``cli`` is registered lazily, in ``sys.modules`` and as
an attribute of this package, so ``import drackn.cli`` executes only
``cli.py``.  The binding rule: a module that needs another only inside some
of its functions binds the module (``from . import lines``) and calls
through it (``lines.SeidelMatrix``); ``from .m import name`` executes ``m``
at once and is kept for what a module needs on every path.  ``cli`` is not
registered, so that ``python -m drackn.cli`` finds it absent from
``sys.modules`` and runs it once.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """Return module ``name``, executing it only on first attribute access.

    This is importlib's documented ``LazyLoader`` recipe.  A module already in
    ``sys.modules`` is returned untouched, so a pending lazy module stays
    pending (``None`` there raises ``ModuleNotFoundError``, as a plain import
    does); a module that cannot be found raises ``ModuleNotFoundError`` here,
    not at first use.  A submodule is also set as an attribute of its
    package, as a plain import sets it.  After the first access the object
    is the plain module.  On Python 3.10 and 3.11 that first access is not
    thread-safe; drackn starts no threads.
    """
    if name in sys.modules:
        module = sys.modules[name]
        if module is None:
            raise ModuleNotFoundError(f"import of {name} halted; None in sys.modules", name=name)
    else:
        spec = importlib.util.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        loader = importlib.util.LazyLoader(spec.loader)
        spec.loader = loader
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = _lazy_import("numpy")
for _name in (
    "arith", "constructions", "covers", "cyclotomic", "errors", "exact_matrix",
    "feasibility", "formats", "gf", "groups", "lines", "quadratic",
):
    _lazy_import(f"{__name__}.{_name}")
del _name
