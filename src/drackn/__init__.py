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
Floating point appears in one place only: the count table of small deck
groups is a float32 matrix product of 0/1 matrices, whose every sum is an
integer below 2^24 and so exact.

numpy is bound lazily as ``drackn.np``: it loads on first use, so the
feasibility and enumeration commands never load it.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    """Return module ``name``, executing it only on first attribute access.

    This is importlib's documented ``LazyLoader`` recipe.  A module already in
    ``sys.modules`` is returned as it is (``None`` there raises
    ``ModuleNotFoundError``, as a plain import does); a module that cannot be
    found raises ``ModuleNotFoundError`` here, not at first use.  After the
    first access the object is the plain module.  On Python 3.10 and 3.11
    that first access is not thread-safe; drackn starts no threads.
    """
    if name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
