"""Per-image pooling: the oracle for `encoders.image_patch_matrix` on a list.

Each image is pooled in its own `adaptive_mean_pool` call over its (gr, gc,
h, w) region blocks, with no grouping by size and no skipped pooling call.
"""

from glre.encoders import adaptive_mean_pool


def pool_each(images, patch_pool: int) -> list:
    """The (R, P) patch matrix of each image, pooled one image at a time."""
    out = []
    for img in images:
        (h, w), (gr, gc) = img.pixels.shape, img.region_grid
        blocks = img.pixels.reshape(gr, h // gr, gc, w // gc).swapaxes(1, 2)
        out.append(adaptive_mean_pool(blocks, patch_pool).reshape(gr * gc, -1))
    return out
