"""Slow reference twins of the fast kernels, for tests only.

Each twin computes what its kernel computes the plain way, and a property
test pins the kernel to it: ``Conv2d`` forward and backward to the
whole-batch im2col lowering, its weight gradient to one ``tensordot``,
``MaxPool2d`` to a sliding-window argmax, ``BatchNorm2d`` to its textbook
form with one fresh array per step, ``ppm.load_image``'s byte-first
resample to the float bilinear resample, and ``data.pair_nearest`` to its
per-record search loop and to a full scan.
"""
import numpy as np

from conedrive.layers import col2im, conv_out_extent, im2col


def conv_forward_reference(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                           stride: int) -> np.ndarray:
    """Slow twin of ``Conv2d.forward``: one im2col and one matmul over the
    whole batch."""
    od, _, k, _ = weight.shape
    n, _, h, w = x.shape
    cols = im2col(x, k, stride)
    out = np.matmul(weight.reshape(od, -1), cols)
    ho = conv_out_extent(h, k, stride)
    wo = conv_out_extent(w, k, stride)
    return out.reshape(n, od, ho, wo) + bias[:, None, None]


def conv_backward_reference(x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray,
                            stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slow twin of ``Conv2d.backward``: (dx, dW, db) from the whole batch's
    columns at once."""
    n, od, ho, wo = grad_out.shape
    k = weight.shape[2]
    cols = im2col(x, k, stride)
    g = grad_out.reshape(n, od, ho * wo)
    dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
    wmat = weight.reshape(od, -1)
    dcols = np.matmul(wmat.T, g)
    return (col2im(dcols, x.shape, k, stride), dw.reshape(weight.shape),
            grad_out.sum(axis=(0, 2, 3)))


def conv_weight_grad_reference(g: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Slow twin of the weight gradient in ``Conv2d.backward``: (od, C*k*k)
    from the (n, od, P) output gradient and (n, C*k*k, P) columns, via
    ``tensordot`` (which copies the transposed columns first)."""
    return np.tensordot(g, cols, axes=([0, 2], [0, 2]))


def maxpool_forward_reference(x: np.ndarray, k: int, s: int):
    """Slow twin of ``MaxPool2d.forward``: (output, row-major argmax of
    each window) from a sliding-window view."""
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::s, ::s]
    flat = win.reshape(win.shape[:4] + (k * k,))
    arg = flat.argmax(axis=-1)
    out = flat.max(axis=-1)
    return out, arg


def maxpool_backward_reference(x_shape: tuple, arg: np.ndarray, grad: np.ndarray,
                               k: int, s: int) -> np.ndarray:
    """Slow twin of ``MaxPool2d.backward``: scatter ``grad`` to each
    window's argmax from ``maxpool_forward_reference``."""
    ho, wo = arg.shape[2], arg.shape[3]
    dx = np.zeros(x_shape, dtype=grad.dtype)
    for idx in range(k * k):
        di, dj = divmod(idx, k)
        contrib = np.where(arg == idx, grad, 0)
        dx[:, :, di : di + s * ho : s, dj : dj + s * wo : s] += contrib
    return dx


def batchnorm_forward_reference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                                running_mean: np.ndarray, running_var: np.ndarray,
                                train: bool, eps: float, momentum: float):
    """Slow twin of ``BatchNorm2d.forward``: (output, running mean, running
    variance, xhat, inv), each step a fresh array; the running statistics
    come back unchanged in eval mode, and xhat and inv form the training
    cache."""
    if train:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean = (1 - momentum) * running_mean + momentum * mean
        running_var = (1 - momentum) * running_var + momentum * var
    else:
        mean = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out, running_mean, running_var, xhat, inv


def batchnorm_backward_reference(grad_out: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                                 gamma: np.ndarray):
    """Slow twin of ``BatchNorm2d.backward``: (dx, dgamma, dbeta) from the
    cache of ``batchnorm_forward_reference``, each step a fresh array."""
    dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    dbeta = grad_out.sum(axis=(0, 2, 3))
    gx = grad_out * gamma[None, :, None, None]
    mean_gx = gx.mean(axis=(0, 2, 3), keepdims=True)
    mean_gx_xhat = (gx * xhat).mean(axis=(0, 2, 3), keepdims=True)
    return inv[None, :, None, None] * (gx - mean_gx - xhat * mean_gx_xhat), dgamma, dbeta


def bilinear_resize_reference(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of (H, W, C) float data; identity when sizes match.

    The twin of ``load_image``'s byte-first resample."""
    h, w = image.shape[:2]
    if (h, w) == (out_h, out_w):
        return image.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = image[y0][:, x0] * (1 - wx) + image[y0][:, x1] * wx
    bot = image[y1][:, x0] * (1 - wx) + image[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def pair_nearest_reference(records, frame_timestamps) -> list[int]:
    """Slow twin of ``pair_nearest``: frame index per record, one
    ``searchsorted`` per record, then a walk back over earlier frames at the
    same distance, so ties go to the earliest frame."""
    ts = np.asarray(frame_timestamps, dtype=np.float64)
    out = []
    for record in records:
        pos = int(np.searchsorted(ts, record.timestamp))
        best = None
        for cand in (pos - 1, pos):
            if 0 <= cand < ts.size:
                dist = abs(ts[cand] - record.timestamp)
                # strict < keeps the earlier frame on exact ties
                if best is None or dist < best[0]:
                    best = (dist, cand)
        dist, first = best
        while first > 0 and abs(ts[first - 1] - record.timestamp) == dist:
            first -= 1
        out.append(first)
    return out


def pair_nearest_bruteforce(records, frame_timestamps) -> list[int]:
    """Independent full-scan oracle for pair_nearest (earlier frame on ties)."""
    ts = list(frame_timestamps)
    out = []
    for record in records:
        best_i, best_d = 0, abs(ts[0] - record.timestamp)
        for i, t in enumerate(ts[1:], start=1):
            d = abs(t - record.timestamp)
            if d < best_d:
                best_i, best_d = i, d
        out.append(best_i)
    return out
