"""Where functional expressions look up hom-sets.

``HomSpace``, the one hom-set type, lives in ``revcat.cat.ops``.
``space_of`` gives the space a morphism lies in.  ``apply_functional``,
``apply_param`` and ``pfix_functional`` check their arguments with it; code
past those entry points applies nodes by ``.apply`` and does not check again.
"""
from __future__ import annotations

from ..cat.ops import HomSpace


def space_of(morphism) -> HomSpace:
    return HomSpace(morphism.category, morphism.src, morphism.dst)
