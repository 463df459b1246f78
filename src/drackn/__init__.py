"""Antipodal covers of complete graphs and equiangular line systems.

Exact-arithmetic tools for three connected families of objects:

* covers of K_n with abelian deck group, given by arc matrices, verified
  combinatorially and spectrally (``covers``, ``constructions``);
* equiangular line systems and their Seidel matrices, with the conversions
  between covers and lines in both directions (``lines``);
* feasibility of parameter triples (n, r, c) and the enumeration of the
  closed-form parameter families (``feasibility``).

Everything is computed over Q, quadratic extensions, or prime-order
cyclotomic fields -- no floating point anywhere.
"""
