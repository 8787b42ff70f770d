"""The memory budget of every tiled loop in the package.

Pair arrays (n1 x n2 distances and logits) and edge arrays (rows x n * k)
are formed a tile of rows at a time, each tile holding at most
``TILE_ENTRIES`` float64 entries (2**16, 512 KB), so their memory grows
with one tile, not with the whole array. The row blocks of pair distances
in ``graphs``, ``autodiff.cross_attention``, ``autodiff.soft_min`` with
``autodiff.surface_penetration``, and the node blocks of
``autodiff.message_pass`` all size their tiles here, and read the budget
when they run.
"""

TILE_ENTRIES = 2**16


def tile_rows(width: int) -> int:
    """Rows of ``width`` entries per tile: as many as the budget holds, at least one."""
    return max(1, TILE_ENTRIES // max(width, 1))
