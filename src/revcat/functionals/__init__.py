"""Functionals on hom-sets: expressions, fixed points, naturality and the trace."""
