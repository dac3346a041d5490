"""Euler-angle <-> rotation-matrix conversion in BVH channel order, on
stacks: angles (..., 3) and matrices (..., 3, 3) in one array call each.

Channels compose intrinsically in file order: for order "ZXY" with
angles (az, ax, ay), R = Ry(ay) @ Rx(ax) @ Rz(az). The forward map is
hand-rolled; the inverse goes through scipy's Rotation (extrinsic
lowercase sequences share the same composition), which zeroes the third
angle under gimbal lock.
"""
from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import GeometryError

_VALID_ORDERS = {"XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"}


def _axis_matrix(axis: str, rad) -> np.ndarray:
    """Elementary rotations about `axis`, shape rad.shape + (3, 3)."""
    i = "XYZ".index(axis)
    j, k = (i + 1) % 3, (i + 2) % 3
    c, s = np.cos(rad), np.sin(rad)
    m = np.zeros(np.shape(rad) + (3, 3))
    m[..., i, i] = 1.0
    m[..., j, j] = m[..., k, k] = c
    m[..., k, j] = s
    m[..., j, k] = -s
    return m


def check_order(order: str) -> str:
    order = order.upper()
    if order not in _VALID_ORDERS:
        raise ValueError(f"rotation order must be a permutation of XYZ, got {order!r}")
    return order


def euler_to_rotmat(angles_deg, order: str) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from per-channel degrees (..., 3),
    applied in file order."""
    order = check_order(order)
    rad = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    r = np.eye(3)
    for i, axis in enumerate(order):
        r = _axis_matrix(axis, rad[..., i]) @ r
    return r


def rotmat_to_euler(r: np.ndarray, order: str) -> np.ndarray:
    """Channel-order degrees (..., 3) reproducing each matrix of `r`
    (..., 3, 3) within 1e-6 in matrix space; GeometryError if any
    matrix of the stack is not a rotation."""
    order = check_order(order)
    r = np.asarray(r, dtype=np.float64)
    err = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(axis=(-2, -1))
    bad = (err > 1e-6) | (np.linalg.det(r) <= 0)
    if bad.any():
        raise GeometryError(f"matrix is not a rotation (orthonormality error {err[bad].max():.2e})")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Gimbal lock")
        rad = Rotation.from_matrix(r.reshape(-1, 3, 3)).as_euler(order.lower())
    return np.rad2deg(rad).reshape(r.shape[:-2] + (3,))


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project each 3x3 block of `m` (..., 3, 3) onto SO(3) via SVD."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    r = u @ vt
    flip = np.linalg.det(r) < 0
    u[flip, :, -1] *= -1
    r[flip] = u[flip] @ vt[flip]
    return r
