"""Rectangular (theta, phi) patches on the unit sphere and node-indexed fields.

Grids are uniform tensor products excluding neighborhoods of the poles
(sin(theta) >= SIN_FLOOR at both edges: the 1/sin(theta) blowup is a
coordinate artifact, and the conical-flow applications live away from the
axis).  An optional boolean mask selects the closed working set Omega-bar.

The grid's connectivity is its open faces, laid out by
SphericalGrid.on_faces as the flux code reads them.  A face is open when
both its nodes are masked; the seam face closes a plain grid's phi axis.
Nodes are neighbours across open faces only: the boundary is the masked
nodes with a closed face, stencils follow runs of open faces, and the
interior's components join across them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, GridMismatchError

SIN_FLOOR = 1e-3

# First-derivative stencils in order of preference, each as (offsets,
# weights in units of 1/(2h)) on the differences f[k + offset] - f[k].
# Difference form makes constants exact zeros.  The 4-point one-sided
# stencil (-4 f0 + 7 f1 - 4 f2 + f3)/(2h) has the central stencil's leading
# error term (+h^2 f'''/6), so derivative fields keep a smooth error across
# stencil switches and compositions (divergence of a gradient) stay second
# order up to the boundary.  Three-node lines fall back to the classical
# (-3, 4, -1)/(2h) stencil.  Offset 0 pads a stencil to three points.
STENCILS = (
    ((1, -1, 0), (1, -1, 0)),        # central
    ((1, 2, 3), (7, -4, 1)),         # forward, 4 points
    ((-1, -2, -3), (-7, 4, -1)),     # backward, 4 points
    ((1, 2, 0), (4, -1, 0)),         # forward, 3 points
    ((-1, -2, 0), (-4, 1, 0)),       # backward, 3 points
)


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    theta_min: float
    theta_max: float
    phi_min: float
    phi_max: float
    n_theta: int
    n_phi: int
    mask: np.ndarray | None = None
    phi_periodic: bool = False

    def __post_init__(self):
        if not (0.0 < self.theta_min < self.theta_max < np.pi):
            raise GridError(
                f"need 0 < theta_min < theta_max < pi, got "
                f"[{self.theta_min}, {self.theta_max}]"
            )
        if not self.phi_min < self.phi_max:
            raise GridError("need phi_min < phi_max")
        if self.n_theta < 3 or self.n_phi < 3:
            raise GridError(
                f"grid too small: {self.n_theta} x {self.n_phi} (need >= 3 nodes "
                "per direction)"
            )
        lo = min(np.sin(self.theta_min), np.sin(self.theta_max))
        if lo < SIN_FLOOR:
            raise GridError(
                f"pole proximity: min sin(theta) = {lo:.3e} < floor "
                f"{SIN_FLOOR:.3e}"
            )
        if self.phi_periodic:
            span = self.phi_max - self.phi_min
            if abs(span - 2.0 * np.pi) > 1e-10:
                raise GridError(
                    "phi_periodic requires phi_max - phi_min = 2*pi"
                )
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != (self.n_theta, self.n_phi):
                raise GridError(
                    f"mask shape {m.shape} != grid shape "
                    f"({self.n_theta}, {self.n_phi})"
                )
            if not m.any():
                raise GridError("mask selects no nodes")
            object.__setattr__(self, "mask", m.copy())

    @property
    def shape(self):
        return (self.n_theta, self.n_phi)

    @cached_property
    def h_theta(self):
        return (self.theta_max - self.theta_min) / (self.n_theta - 1)

    @cached_property
    def h_phi(self):
        # Periodic grids drop the duplicate phi_max node.
        if self.phi_periodic:
            return (self.phi_max - self.phi_min) / self.n_phi
        return (self.phi_max - self.phi_min) / (self.n_phi - 1)

    @cached_property
    def thetas(self):
        return self.theta_min + self.h_theta * np.arange(self.n_theta)

    @cached_property
    def phis(self):
        return self.phi_min + self.h_phi * np.arange(self.n_phi)

    @cached_property
    def sin_theta(self):
        return np.sin(self.thetas)

    @cached_property
    def sin_theta_face(self):
        """sin(theta) on the n_theta - 1 theta faces i + 1/2, as a column."""
        return np.sin(self.thetas[:-1] + 0.5 * self.h_theta)[:, None]

    @cached_property
    def theta_mesh(self):
        return np.broadcast_to(self.thetas[:, None], self.shape).copy()

    @cached_property
    def phi_mesh(self):
        return np.broadcast_to(self.phis[None, :], self.shape).copy()

    @cached_property
    def mask_array(self):
        """Effective mask: all nodes when no explicit mask was given."""
        if self.mask is None:
            return np.ones(self.shape, dtype=bool)
        return self.mask

    def on_faces(self, op, a, axis):
        """op(a[k + 1], a[k]) on the faces k + 1/2 along axis: n_theta - 1
        rows of theta faces, and phi faces as an (n_theta, n_phi) array
        whose last column holds the seam face of a periodic grid, else
        zeros."""
        if axis == 0:
            return op(a[1:], a[:-1])
        out = np.empty(a.shape, a.dtype)
        op(a.ravel()[1:], a.ravel()[:-1], out=out.ravel()[:-1])  # flat: rows wrap
        out[:, -1] = op(a[:, 0], a[:, -1]) if self.phi_periodic else 0
        return out

    def at_nodes(self, op, faces, axis):
        """op(faces[k + 1/2], faces[k - 1/2]) at the nodes k along axis, for
        face values laid out by on_faces; zero at the ends of a non-periodic
        axis."""
        out, stride = np.empty(self.shape, faces.dtype), self.n_phi if axis == 0 else 1
        op(faces.ravel()[stride:], faces.ravel()[:-stride], out=out.ravel()[stride:faces.size])
        o, f = (out, faces) if axis == 0 else (out.T, faces.T)
        if axis == 1 and self.phi_periodic:  # the seam face closes the ring
            o[0] = op(f[0], f[-1])
        else:  # no face pair surrounds them (and the flat pass wrapped rows there)
            o[0] = o[-1] = 0.0
        return out

    @cached_property
    def open_faces(self):
        """(theta faces, phi faces) laid out by on_faces: True where the
        face is open, which it is when both its nodes are masked.  The seam
        column is open only on a periodic grid."""
        return tuple(self.on_faces(np.logical_and, self.mask_array, axis) for axis in (0, 1))

    @cached_property
    def open_sides(self):
        """(4, n_theta, n_phi) bools: masked nodes whose face at +theta,
        -theta, +phi and -phi, in that order, is closed."""
        m, sides = self.mask_array, []
        for axis in (0, 1):
            after = self._faces_after(axis)
            sides += [m & ~after, m & ~np.take(after, np.arange(-1, self.shape[axis] - 1), axis)]
        return np.array(sides)

    def _faces_after(self, axis):
        """Node array of the open faces k + 1/2 after the nodes k along axis:
        the seam face after the last phi column, a closed face after the
        last theta row, so that cyclically the face before k is k - 1's."""
        faces = self.open_faces[axis]
        return faces if axis else np.concatenate([faces, np.zeros_like(faces[:1])])

    @cached_property
    def boundary_mask(self):
        """Masked nodes with a closed face: on the patch edge or by an unmasked node."""
        return self.mask_array & ~self.interior_mask

    @cached_property
    def interior_mask(self):
        """Nodes whose four faces are open."""
        theta, phi = (self.at_nodes(np.logical_and, faces, axis)
                      for axis, faces in enumerate(self.open_faces))
        return theta & phi

    @cached_property
    def interior_labels(self):
        """Node labels of the interior's 4-connected components (phi wraps
        on a periodic grid): 1, 2, ... in flat order of each component's
        first node, 0 off the interior.

        Every node lies on one theta-run and one phi-run of interior nodes
        joined by open faces.  Each round gives every theta-run the least
        number of the phi-runs it crosses and then every phi-run the least
        of the theta-runs it crosses, joining the two phi-runs that an open
        seam face joins, so the rounds grow with the turns a path takes,
        not its length.
        """
        im = self.interior_mask
        theta, phi = self.open_faces

        def runs(a, joined):  # each node's run along axis 1, and where the runs start
            starts = a.copy()
            starts[:, 1:] &= ~(a[:, :-1] & joined)
            return (np.cumsum(starts) - 1).reshape(a.shape), np.flatnonzero(starts[a])

        phi_run, phi_starts = runs(im, phi[:, :-1])
        theta_run, theta_starts = runs(im.T, theta.T)
        across, along = theta_run.T[im], phi_run.T[im.T]
        seam = im[:, 0] & im[:, -1] & phi[:, -1]
        ends = phi_run[seam][:, [0, -1]].T
        lab = np.arange(phi_starts.size)
        while lab.size:
            new = np.minimum.reduceat(lab[along], theta_starts)[across]
            new = np.minimum.reduceat(new, phi_starts)
            new[ends] = new[ends].min(axis=0)
            if np.array_equal(new, lab):
                break
            lab = new
        out = np.zeros(self.shape, dtype=np.intp)
        out[im] = np.cumsum(lab == np.arange(lab.size))[lab][phi_run[im]]
        return out

    @cached_property
    def stencils(self):
        """Per-axis stencil tables of the masked nodes whose derivative
        stencil is not central, chosen once from the runs of open faces.

        Entry `axis` (0 = theta, 1 = phi, wrapping when phi_periodic) is
        (nodes, idx, w1): the flat indices of the masked nodes with a closed
        face along the axis, then (3, len(nodes)) arrays holding the flat
        index of each node's three stencil points and their
        first-derivative weights from STENCILS.  A node's stencil is the
        first of STENCILS whose points it reaches by runs of open faces, so
        every stencil point is a masked node.  The other masked nodes are
        central, which operators._derivative applies by slicing, so a table
        has O(perimeter) rows.  Raises GridError naming the first masked
        node that has no usable stencil.
        """
        tables = []
        for axis, faces in enumerate(self.open_faces):
            n, after = self.shape[axis], self._faces_after(axis).ravel()
            nodes = np.flatnonzero(self.mask_array & ~self.at_nodes(np.logical_and, faces, axis))
            k, stride = (nodes // self.n_phi, self.n_phi) if axis == 0 else (nodes % n, 1)
            # flat index of the nodes -3, ..., 3 steps along axis, cyclically
            ring = nodes + ((np.arange(-3, n + 3) % n)[k + np.arange(7)[:, None]] - k) * stride
            # open faces in a row after and before each node, up to 3
            runs = [np.logical_and.accumulate(after[ring[rows]]).sum(0)
                    for rows in ([3, 4, 5], [2, 1, 0])]
            kind = np.full(nodes.size, -1)
            for s, (offs, _) in reversed(list(enumerate(STENCILS))):
                kind[(runs[0] >= max(offs)) & (runs[1] >= -min(offs))] = s
            if np.any(kind < 0):
                i, j = np.unravel_index(nodes[np.argmax(kind < 0)], self.shape)
                raise GridError(f"mask too thin for a derivative stencil at node "
                                f"({int(i)}, {int(j)})")
            offsets, w1 = (np.array(col, dtype=np.int8)[kind].T.copy() for col in zip(*STENCILS))
            tables.append((nodes, ring[offsets + 3, np.arange(nodes.size)], w1))
        return tuple(tables)

    def same_geometry(self, other: "SphericalGrid") -> bool:
        if self is other:
            return True
        return (
            self.theta_min == other.theta_min
            and self.theta_max == other.theta_max
            and self.phi_min == other.phi_min
            and self.phi_max == other.phi_max
            and self.n_theta == other.n_theta
            and self.n_phi == other.n_phi
            and self.phi_periodic == other.phi_periodic
            and np.array_equal(self.mask_array, other.mask_array)
        )


def require_same_grid(*fields):
    g0 = fields[0].grid
    for f in fields[1:]:
        if not g0.same_geometry(f.grid):
            raise GridMismatchError("fields do not share a grid")
    return g0


@dataclass(eq=False)
class ScalarField:
    """One real value per grid node, theta index outer."""

    grid: SphericalGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridError(
                f"field shape {v.shape} != grid shape {self.grid.shape}"
            )
        self.values = v

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(theta, phi) at every node (numpy-broadcastable fn)."""
        return cls(grid, np.asarray(fn(grid.theta_mesh, grid.phi_mesh), dtype=float))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())


@dataclass(eq=False)
class VectorField:
    """Per-node pair (v_theta, v_phi) in the orthonormal spherical frame."""

    grid: SphericalGrid
    v_theta: np.ndarray
    v_phi: np.ndarray

    def __post_init__(self):
        vt = np.asarray(self.v_theta, dtype=float)
        vp = np.asarray(self.v_phi, dtype=float)
        if vt.shape != self.grid.shape or vp.shape != self.grid.shape:
            raise GridError("vector component shape does not match grid")
        self.v_theta = vt
        self.v_phi = vp
