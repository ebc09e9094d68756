"""Exact computation with quiver representations over prime fields.

Subpackages:
  exactfield  dense F_p linear algebra
  quivrep     quivers with relations, modules, Hom spaces, enumeration
  homext      Ext^1, extension realization, conflation enumeration
  excat       extension-closed subcategories, torsion pairs, quotients
  recol       triangular matrix algebras and six-functor recollements
  fixtures    the built-in worked example (A2 quiver and its T2 algebra)
  cli         command line front end
"""

from .exactfield import DEFAULT_PRIME, Mat

__all__ = ["DEFAULT_PRIME", "Mat"]
