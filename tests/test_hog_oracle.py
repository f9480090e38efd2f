"""Scalar-loop reference implementation of the gradient-histogram descriptor,
kept deliberately naive and independent of the vectorized production code."""

import math

import numpy as np

from switchfuse import ImageGray, compute_descriptor

RESIZE = 64
CELL = 8
BINS = 9
BLOCK = 2


def ref_resize(img, out_h, out_w):
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for oy in range(out_h):
        for ox in range(out_w):
            sy = (oy + 0.5) * (in_h / out_h) - 0.5
            sx = (ox + 0.5) * (in_w / out_w) - 0.5
            y0 = min(max(int(math.floor(sy)), 0), in_h - 1)
            x0 = min(max(int(math.floor(sx)), 0), in_w - 1)
            y1 = min(y0 + 1, in_h - 1)
            x1 = min(x0 + 1, in_w - 1)
            fy = min(max(sy - y0, 0.0), 1.0)
            fx = min(max(sx - x0, 0.0), 1.0)
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


def ref_hog(img):
    img = ref_resize(img, RESIZE, RESIZE)
    n_cells = RESIZE // CELL
    hist = np.zeros((n_cells, n_cells, BINS))
    for y in range(RESIZE):
        for x in range(RESIZE):
            xl = max(x - 1, 0)
            xr = min(x + 1, RESIZE - 1)
            yu = max(y - 1, 0)
            yd = min(y + 1, RESIZE - 1)
            gx = (img[y, xr] - img[y, xl]) / 2.0
            gy = (img[yd, x] - img[yu, x]) / 2.0
            mag = math.hypot(gx, gy)
            theta = math.degrees(math.atan2(gy, gx)) % 180.0
            pos = theta / (180.0 / BINS) - 0.5
            k0 = math.floor(pos)
            frac = pos - k0
            k0 = int(k0) % BINS
            k1 = (k0 + 1) % BINS
            cy, cx = y // CELL, x // CELL
            hist[cy, cx, k0] += mag * (1.0 - frac)
            hist[cy, cx, k1] += mag * frac
    n_blocks = n_cells - BLOCK + 1
    out = []
    for by in range(n_blocks):
        for bx in range(n_blocks):
            block = []
            for dy in range(BLOCK):
                for dx in range(BLOCK):
                    block.extend(hist[by + dy, bx + dx])
            norm = math.sqrt(sum(v * v for v in block))
            if norm > 0:
                block = [v / norm for v in block]
            else:
                block = [0.0] * len(block)
            out.extend(block)
    return np.asarray(out)


def step_edge_image():
    arr = np.zeros((64, 64))
    arr[:, 32:] = 1.0
    return arr


def test_step_edge_matches_reference():
    arr = step_edge_image()
    got = compute_descriptor(ImageGray(arr), "hog")
    want = ref_hog(arr)
    assert got.shape == want.shape == (1764,)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_step_edge_mass_in_horizontal_bin():
    # a vertical edge has purely horizontal gradient (theta = 0), which
    # votes only into the wrapped pair around orientation zero
    arr = step_edge_image()
    desc = ref_hog(arr).reshape(7, 7, 2, 2, BINS)
    nonzero_bins = {b for b in range(BINS) if np.any(desc[..., b] != 0)}
    assert nonzero_bins <= {0, BINS - 1}
    assert np.any(desc != 0)


def test_random_images_match_reference():
    rng = np.random.default_rng(12)
    for shape in [(64, 64), (48, 80), (17, 33)]:
        arr = rng.uniform(size=shape)
        got = compute_descriptor(ImageGray(arr), "hog")
        want = ref_hog(arr)
        assert np.max(np.abs(got - want)) <= 1e-6
