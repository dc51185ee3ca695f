"""Truncated Bloch fibers of the periodic Dirac operator.

A fiber is indexed by a quasimomentum k, a unit direction e and a
nonnegative imaginary shift kappa: the per-mode symbol is

    D_N = sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j .

On a finite mode window the operator is the block matrix with D_N plus the
potential mean on the diagonal and the potential coefficients V(N - N') off
the diagonal (block Toeplitz in the potential part).

Two modes couple only when N - N' is a key of the potential, and two spin
indices only through the generators or a coefficient entry, so a fiber is
the exact direct sum of its diagonal blocks over the connected components
of that pattern: the stencil's nonzeros and I_m (x) the union of the
nonzero patterns of alpha_1 .. alpha_n.  The pattern is the same for every
fiber on a window.  The modes split by the cosets of the sublattice
the keys span (each mode alone for a potential mean), and for even n the
diagonal chirality of `build_clifford`, +-diag(1, -1, 1, -1, ...), splits the
spins whenever every coefficient commutes with it (Lawson and Michelsohn,
Spin Geometry, ch. I.5): such components hold only even or only odd rows.

A fiber is held as those blocks: one dense (count, size, size) stack per
block size.  The composite coefficients in the stacks depend only on the
window and the potential, so `potential_stencil` builds them once per pair,
and per fiber `assemble` adds the symbols of every mode onto their diagonal
entries.  The stencil alone decides a window's size: it refuses stacks of
more than DENSE_LIMIT^2 entries in all, so no block passes DENSE_LIMIT rows.
No solver builds the whole (dim, dim) matrix; the probe multiplies block by
block.

The singular values of a single symbol block are known in closed form: with
p the axial component of k + 2 pi N and q the transverse radius,

    g_minus = hypot(p, kappa - q),   g_plus = hypot(p, kappa + q),

each with multiplicity M/2.  These factors also drive the weighted
lower-bound checks.  Every solver works on the blocks: the eigenvalues are
the sorted union of theirs and sigma_min the smallest of theirs.  The
smallest singular value has two routes: method="auto" takes the closed form
when the potential is empty and otherwise the LAPACK SVD of the blocks;
method="dense" takes the LAPACK SVD also for an empty potential, the
reference the closed form is checked against.  The SVD route solves only
the blocks that can hold the minimum: the closed form and the stencil's
`coupling_norm` bound each block's sigma_min from below (Weyl's
inequality), and a Cholesky test rules out most of the rest, stack by
stack.  With LAPACK's SVD error taken as at most 2 size eps |B|_2, the
result is the float the SVD of every block would give
(`weighted_sigma_min`).  Block solves and the probe set numpy's OpenBLAS
to one thread, for the rest of the process, so their bits do not depend on
the thread count; the probe's parallelism is its own threads, over column
chunks of vectors drawn from per-chunk seeds.
"""

from __future__ import annotations

import concurrent.futures
import math
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .clifford import CliffordRep, clifford_contraction
from .fields import PotentialSet, coefficient_sum
from .lattice import Lattice
from .util import _usable_cores, blas_single_threaded, check_unit

DENSE_LIMIT = 4096
# bytes of one column chunk of probe vectors (`sigma_min_probe`)
PROBE_CHUNK_BYTES = 2 ** 21
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FiberPoint:
    """Quasimomentum k with direction e and imaginary shift kappa >= 0."""

    k: np.ndarray
    e: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        e = np.asarray(self.e, dtype=float)
        if k.ndim != 1 or e.shape != k.shape:
            raise ValueError("k and e must be vectors of one length")
        e = check_unit(e, "direction e", tol=1e-12)
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "e", e)


class ModeSet:
    """Ordered window of reciprocal modes, indexable by coefficient tuple."""

    def __init__(self, lattice: Lattice, coords) -> None:
        arr = np.asarray(coords, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != lattice.n:
            raise ValueError("coords must be (m, n) integer rows")
        self.lattice = lattice
        self.coords = arr.copy()
        self.coords.flags.writeable = False
        self.index = {tuple(int(c) for c in row): i for i, row in enumerate(arr)}
        if len(self.index) != arr.shape[0]:
            raise ValueError("duplicate modes in the window")
        self.cutoff: Optional[float] = None
        # the Stencil of this window, one per PotentialSet
        # (`potential_stencil`)
        self._stencils: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @classmethod
    def from_cutoff(cls, lattice: Lattice, cutoff: float) -> "ModeSet":
        """All modes with |2 pi N| <= cutoff, origin first, then by (norm, lex)."""
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        out = cls(lattice, lattice.mode_window(cutoff))
        out.cutoff = float(cutoff)
        return out

    def __len__(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def duals(self) -> np.ndarray:
        """(m, n) reciprocal vectors of the modes, read-only.

        One `Lattice.dual_point` call per row, so each row has the bits of
        the single-mode functions (`symbol`, `g_factors`).
        """
        out = np.array([self.lattice.dual_point(row)
                        for row in self.coords.astype(float)])
        out = out.reshape(len(self), self.lattice.n)
        out.flags.writeable = False
        return out


def _check_fiber(lattice: Lattice, fiber: FiberPoint) -> None:
    if fiber.k.shape != (lattice.n,):
        raise ValueError(f"a fiber in {fiber.k.shape[0]} dimensions on a "
                         f"lattice in {lattice.n}")


def _momentum(lattice: Lattice, fiber: FiberPoint, N) -> np.ndarray:
    """x = k + 2 pi N, refused unless the fiber has the lattice's dimension."""
    _check_fiber(lattice, fiber)
    return fiber.k + 2.0 * math.pi * lattice.dual_point(np.asarray(N, dtype=float))


def _momenta(modes: ModeSet, fiber: FiberPoint) -> np.ndarray:
    """(m, n) rows x = k + 2 pi N of the window, with `_momentum`'s bits."""
    _check_fiber(modes.lattice, fiber)
    return fiber.k + 2.0 * math.pi * modes.duals


def symbol(rep: CliffordRep, lattice: Lattice, fiber: FiberPoint, N) -> np.ndarray:
    """The per-mode matrix sum_j (k_j + 2 pi N_j + i kappa e_j) alpha_j."""
    x = _momentum(lattice, fiber, N)
    return clifford_contraction(rep, x + 1.0j * fiber.kappa * fiber.e)


def _symbols(rep: CliffordRep, modes: ModeSet, fiber: FiberPoint
             ) -> np.ndarray:
    """(m, M, M) symbols of every window mode in one pass.

    The sum runs over j in the order of `clifford_contraction`, so each has
    the bits of `symbol`.
    """
    z = _momenta(modes, fiber) + 1.0j * fiber.kappa * fiber.e
    out = np.zeros((len(modes), rep.M, rep.M), dtype=complex)
    for j in range(rep.n):
        out += z[:, j, None, None] * rep.alphas[j]
    return out


def _pq_rows(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(rows, 2) table of (p, q) for the momenta x: the axial part (x, e)
    and the transverse radius.

    p and |x|^2 are correctly rounded sums (`math.fsum`) per row, so the
    bits do not depend on the BLAS kernel.
    """
    out = []
    for xe, xx in zip((x * e).tolist(), (x * x).tolist()):
        p = math.fsum(xe)
        q2 = math.fsum(xx) - p * p
        out.append((p, math.sqrt(q2) if q2 > 0.0 else 0.0))
    return np.array(out, dtype=float).reshape(-1, 2)


def axial_transverse(modes: ModeSet, fiber: FiberPoint) -> np.ndarray:
    """(m, 2) table of (p, q) of x = k + 2 pi N for every window mode."""
    return _pq_rows(_momenta(modes, fiber), fiber.e)


def g_table(pq: np.ndarray, kappa: float) -> np.ndarray:
    """(rows, 2) closed-form (g_minus, g_plus) of a (p, q) table
    (`axial_transverse`) at the shift kappa."""
    return np.array([(math.hypot(p, kappa - q), math.hypot(p, kappa + q))
                     for p, q in pq.tolist()], dtype=float).reshape(-1, 2)


def g_factors(lattice: Lattice, fiber: FiberPoint, N) -> tuple[float, float]:
    """Closed-form extreme singular values (g_minus, g_plus) of one symbol."""
    pq = _pq_rows(_momentum(lattice, fiber, N)[None, :], fiber.e)
    gm, gp = g_table(pq, fiber.kappa)[0].tolist()
    return gm, gp


def annulus_mask(pq: np.ndarray, kappa: float, beta: float) -> np.ndarray:
    """Which modes of a (p, q) table (`axial_transverse`) put k + 2 pi N in
    the critical annulus: |p| < beta and |kappa - q| < beta."""
    return (np.abs(pq[:, 0]) < beta) & (np.abs(kappa - pq[:, 1]) < beta)


@dataclass(frozen=True)
class Stencil:
    """What every fiber on one mode window shares, for one potential.

    `flat` holds the stacks of all block sizes end to end, read-only:
    `layout` gives, per size, the (count, size) rows of a stack and its
    start in `flat`, and the stack holds the composite coefficients
    V(N_i - N_j) at its entries.
    `stack_index` are the positions in `flat` of the modes' diagonal spin
    entries that lie inside a block, and `symbol_index` the matching
    positions in the flattened (m, M, M) symbols.
    `coupling_norm` is the sum of the spectral norms of the composite
    coefficients, the mean included: it bounds the norm of the potential
    part of every diagonal block.
    """

    layout: tuple
    flat: np.ndarray
    stack_index: np.ndarray
    symbol_index: np.ndarray
    coupling_norm: float

    def stacks(self, flat: np.ndarray) -> tuple:
        """(rows, stack) pairs over `flat`, laid out like `self.flat`."""
        return tuple((rows, flat[start:start + rows.size * rows.shape[1]]
                      .reshape(rows.shape[0], rows.shape[1], rows.shape[1]))
                     for rows, start in self.layout)


@dataclass
class TruncatedDiracOperator:
    """One fiber on a mode window, held as its diagonal blocks.

    `blocks` are (rows, stack) pairs, one per block size: rows[i] are the
    ascending fiber rows of stack[i], a dense (size, size) block, one per
    connected component (see `potential_stencil`).  The fiber has no entry
    outside the blocks.
    """

    modes: ModeSet
    fiber: FiberPoint
    pot: PotentialSet
    blocks: tuple

    @property
    def dim(self) -> int:
        return len(self.modes) * self.pot.rep.M

    @cached_property
    def axial_transverse(self) -> np.ndarray:
        """(m, 2) table of (p, q) per window mode (`axial_transverse`)."""
        return axial_transverse(self.modes, self.fiber)

    @cached_property
    def _g(self) -> np.ndarray:
        # the closed-form table, read-only: `mode_g_factors` hands out copies
        out = g_table(self.axial_transverse, self.fiber.kappa)
        out.flags.writeable = False
        return out

    def mode_g_factors(self) -> np.ndarray:
        """(m, 2) array of closed-form (g_minus, g_plus) per window mode, a
        copy the caller may write into."""
        return self._g.copy()


def potential_stencil(modes: ModeSet, pot: PotentialSet) -> Stencil:
    """The `Stencil` of every fiber on the window, built once per potential.

    Block (i, j) of the fiber's potential part is the composite coefficient
    V(N_i - N_j).  Each entry is copied from the coefficient into the stack
    entry it serves, so equal offsets give bit-identical blocks; exact zeros
    are left out of the pattern, no tolerance: a dropped coupling would give
    a wrong spectrum.  The components are those of the pattern every fiber
    on the window shares: the coefficient entries and I_m (x) the union of
    the nonzero patterns of alpha_1 .. alpha_n (the symbols); a row with
    neither is a component by itself.  Refused, before the stacks are
    allocated, when they would hold more than DENSE_LIMIT^2 entries (256
    MiB), so no block has more than DENSE_LIMIT rows: the one size limit of
    a fiber's blocks and of every solve on them.  A scan builds the stencil
    before its `pmap`, so that forked workers inherit it.  The window must
    lie on the potential's lattice.  Building warns, naming the cutoff, when
    some coefficients connect no two window modes: they are clipped.
    """
    built = modes._stencils.get(pot)
    if built is not None:
        return built
    if not modes.lattice.same_as(pot.lattice):
        raise ValueError("mode window and potential are on different lattices")
    rep, m = pot.rep, len(modes)
    M, dim = rep.M, rep.M * m
    # nonzero coefficient entries, at fiber rows and columns
    rows, cols, vals = [], [], []
    clipped = 0
    composite = pot.composite()
    for key, block in composite.coeffs.items():
        targets = modes.coords + np.asarray(key, dtype=np.int64)
        placed = []
        for j, target in enumerate(targets.tolist()):
            i = modes.index.get(tuple(target))
            if i is not None:
                placed.append((i, j))
        clipped += not placed
        r, c = np.nonzero(block)
        if placed and r.size:
            pairs = np.array(placed, dtype=np.int64)
            rows.append((pairs[:, :1] * M + r).reshape(-1))
            cols.append((pairs[:, 1:] * M + c).reshape(-1))
            vals.append(np.broadcast_to(block[r, c], (len(placed), r.size))
                        .reshape(-1))
    if modes.cutoff is not None and clipped:
        warnings.warn(f"potential has {clipped} mode(s) beyond the "
                      f"convolution reach of the window at cutoff "
                      f"{modes.cutoff!r}; they are clipped",
                      RuntimeWarning, stacklevel=2)
    rows = np.concatenate(rows + [np.zeros(0, dtype=np.int64)])
    cols = np.concatenate(cols + [np.zeros(0, dtype=np.int64)])
    vals = np.concatenate(vals + [np.zeros(0, dtype=complex)])
    # every mode's diagonal spin entries (i M + r, i M + c)
    r, c = np.divmod(np.arange(M * M), M)
    diag_rows = (np.arange(m)[:, None] * M + r).reshape(-1)
    diag_cols = (np.arange(m)[:, None] * M + c).reshape(-1)
    spins = np.any([a != 0 for a in rep.alphas[:rep.n]], axis=0).reshape(-1)
    components = _components(
        np.concatenate([rows, diag_rows[np.tile(spins, m)]]),
        np.concatenate([cols, diag_cols[np.tile(spins, m)]]), dim)
    sizes = np.array([len(members) for members in components])
    entries = int(np.sum(sizes * sizes))
    if entries > DENSE_LIMIT ** 2:
        raise ValueError(f"the diagonal blocks hold {entries} entries, over "
                         f"the dense limit {DENSE_LIMIT}^2; reduce the cutoff")
    # stacks by block size, in the order the sizes first occur
    by_size: dict = {}
    for b, size in enumerate(sizes.tolist()):
        by_size.setdefault(size, []).append(b)
    layout, start = [], 0
    block_start = np.empty(len(components), dtype=np.int64)
    for size, members in by_size.items():
        layout.append((np.stack([components[b] for b in members]), start))
        block_start[members] = start + size * size * np.arange(len(members))
        start += size * size * len(members)
    # block of each row, its place in the block and its first stack entry
    order = np.concatenate(components)
    label, local = np.empty(dim, dtype=np.int64), np.empty(dim, dtype=np.int64)
    label[order] = np.repeat(np.arange(len(components)), sizes)
    local[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_start = block_start[label] + local * sizes[label]

    flat = np.zeros(start, dtype=complex)
    flat[row_start[rows] + local[cols]] = vals
    flat.flags.writeable = False
    inside = label[diag_rows] == label[diag_cols]
    built = modes._stencils[pot] = Stencil(
        layout=tuple(layout), flat=flat,
        stack_index=row_start[diag_rows[inside]] + local[diag_cols[inside]],
        symbol_index=np.flatnonzero(inside),
        coupling_norm=coefficient_sum(composite))
    return built


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> tuple:
    """Connected components of the pattern on `dim` rows whose entries
    (rows, cols) are undirected edges, as arrays of ascending rows ordered
    by their first row.

    Each row points at a root, at first itself.  A pass hooks the larger
    root of every entry onto the smaller one, then jumps pointers until each
    row points at a root again; once every entry has one root at both ends,
    the root of a component is its smallest row.
    """
    parent = np.arange(dim)
    while True:
        a, b = parent[rows], parent[cols]
        if np.array_equal(a, b):
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    order = np.argsort(parent, kind="stable")
    cuts = np.flatnonzero(np.diff(parent[order])) + 1
    return tuple(np.split(order, cuts))


def assemble(modes: ModeSet, fiber: FiberPoint, pot: PotentialSet
             ) -> TruncatedDiracOperator:
    """The fiber on the mode window, as the diagonal blocks of its stencil.

    The symbols of all modes, the only part that changes from fiber to
    fiber, are added onto a copy of the window's stacks: a diagonal entry is
    the symbol plus the potential mean and every other entry a single
    coefficient.  The stencil checks the window against the potential when
    it is built, and the symbols the fiber against the lattice.
    """
    stencil = potential_stencil(modes, pot)
    symbols = _symbols(pot.rep, modes, fiber)
    flat = stencil.flat.copy()
    flat[stencil.stack_index] += symbols.reshape(-1)[stencil.symbol_index]
    return TruncatedDiracOperator(modes=modes, fiber=fiber, pot=pot,
                                  blocks=stencil.stacks(flat))


def eigenvalues(op: TruncatedDiracOperator) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian fiber (kappa = 0 only).

    Raises for shifted or non-Hermitian fibers; those carry spectral
    information through sigma_min instead.  The spectrum is the sorted union
    of the dense eigenvalues of the diagonal blocks, one stacked call per
    block size; the stencil has bounded their size.  The first call sets
    numpy's OpenBLAS to one thread for the rest of the process.
    """
    if op.fiber.kappa != 0.0:
        raise ValueError("shifted fibers are not Hermitian; use sigma_min")
    scale = max(float(np.max(np.abs(stack))) for _, stack in op.blocks) or 1.0
    asym = max(float(np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))))
               for _, stack in op.blocks)
    if asym > 1e-12 * scale:
        raise ValueError("fiber matrix is not Hermitian within tolerance; "
                         "use sigma_min")
    blas_single_threaded()
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(stack).reshape(-1) for _, stack in op.blocks]))


def sigma_min(op: TruncatedDiracOperator, method: str = "auto") -> float:
    """Smallest singular value of the truncated fiber.

    `weighted_sigma_min` with unit weights, which leave every route's bits
    unchanged: the closed form when the potential is empty (method="auto"),
    otherwise the LAPACK SVD of the diagonal blocks that can hold the
    minimum.
    """
    return weighted_sigma_min(op, np.ones(len(op.modes)), method)


def weighted_sigma_min(op: TruncatedDiracOperator, weights: np.ndarray,
                       method: str = "auto") -> float:
    """min over nonzero phi of |D phi| / |W phi| with per-mode weights.

    Equivalently the smallest singular value of D W^{-1} (W is the diagonal
    weight, one positive entry per mode, repeated across the M spin
    components).  method="auto" uses the exact per-mode factors,
    min g_minus / weight, when the potential is empty.  Otherwise, and
    always for method="dense", the reference, it is the least LAPACK SVD
    value over the fiber's diagonal blocks of D W^{-1} (the blocks with
    their columns scaled by 1/w), which W commutes with, and only the
    blocks that can hold the minimum are solved.

    A block B = (S + P) W^{-1} is its modes' symbols S plus its potential
    part P, and |P| <= c, the stencil's `coupling_norm`.  Per mode, S has
    singular values among g_minus and g_plus, so by Weyl's inequality for
    singular values (Horn and Johnson, Topics in Matrix Analysis, 3.3)

        sigma_min(B) >= lo = min(g_minus / w) - c / min w,
        |B|_2        <= hi = max(g_plus / w) + c / min w,

    over the block's modes.  The LAPACK value is within p(size) eps |B|_2
    of the exact one, with p a modestly growing function the LAPACK Users'
    Guide (4.9) gives no value for; tau = 2 size eps hi is taken to bound
    that error together with the rounding of the block's entries and of lo,
    an assumption the tests against the SVD of every block check but that is
    not proved.  The block of least upper bound min(g_minus / w) + c / min w,
    by the same inequality, is solved first.  Then, stack by stack in
    ascending order of their least lo - tau, a lower bound on the LAPACK
    values, the blocks with lo - tau < best, the least value so far, are the
    candidates, picked by one mask; the others cannot go below best, and no
    later stack can once its least lo - tau reaches best.  A Cholesky
    factorisation of fl(B^H B) - (t^2 + eta) I at t = best + tau tests each
    candidate for sigma_min(B) >= t, and so for a LAPACK value of at least
    best; a candidate whose factorisation runs to completion is skipped, and
    the stack's other candidates are solved by one stacked SVD.
    eta = 4 (size + 3) eps (trace fl(B^H B) + t^2) covers the rounding of
    the Gram product, |fl(B^H B) - B^H B|_2 <= gamma_size |B|_F^2, of the
    shift, and the backward error of a Cholesky factorisation that runs to
    completion, gamma_(size+1) |R^H| |R| with |R|_F^2 about the trace
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).  So,
    with tau as above, the result is the float the SVD of every block would
    give, whatever the order.  Block solves set numpy's OpenBLAS to one
    thread, for the rest of the process, before the first product.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(op.modes),):
        raise ValueError("need one weight per window mode")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    if method not in ("auto", "dense"):
        raise ValueError("method must be 'auto' or 'dense'")
    g = op._g
    if method == "auto" and op.pot.is_empty:
        return float(np.min(g[:, 0] / weights))
    blas_single_threaded()
    M = op.pot.rep.M
    coupling = potential_stencil(op.modes, op.pot).coupling_norm
    low, high = g[:, 0] / weights, g[:, 1] / weights
    scale = np.repeat(1.0 / weights, M)
    queue = []
    for rows, stack in op.blocks:
        modes = rows // M
        reach = coupling / np.min(weights[modes], axis=1)
        tau = 2.0 * rows.shape[1] * _EPS * (np.max(high[modes], axis=1)
                                            + reach)
        centre = np.min(low[modes], axis=1)
        floor = centre - reach - tau
        queue.append((float(np.min(floor)), floor, centre + reach, tau, rows,
                      stack))
    queue.sort(key=lambda item: item[0])
    _, floor, ceiling, _, rows, stack = min(
        queue, key=lambda item: float(np.min(item[2])))
    first = int(np.argmin(ceiling))
    best = _least_sigma(stack[first:first + 1] * scale[rows[first]])
    floor[first] = math.inf
    for least, floor, _, tau, rows, stack in queue:
        if least >= best:
            break
        kept = np.flatnonzero(floor < best)
        if kept.size == 0:
            continue
        blocks = stack[kept] * scale[rows[kept]][:, None, :]
        blocks = blocks[~_certified_above(blocks, best + tau[kept])]
        if len(blocks):
            best = min(best, _least_sigma(blocks))
    return best


def _least_sigma(blocks: np.ndarray) -> float:
    """The least LAPACK singular value of a (count, size, size) stack."""
    return float(np.min(np.linalg.svd(blocks, compute_uv=False)[:, -1]))


def _certified_above(blocks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which blocks of a stack a Cholesky factorisation of the shifted Gram
    matrix shows to have sigma_min(blocks[i]) >= t[i] (`weighted_sigma_min`
    gives the shift).

    numpy.linalg.cholesky raises for the whole stack when one factorisation
    fails; its gufunc, called here, fills that one with NaN instead.
    """
    gram = blocks.conj().transpose(0, 2, 1) @ blocks
    size = blocks.shape[1]
    diagonal = np.arange(size)
    shift = t * t + 4.0 * (size + 3) * _EPS * (
        np.trace(gram, axis1=1, axis2=2).real + t * t)
    gram[:, diagonal, diagonal] -= shift[:, None]
    with np.errstate(all="ignore"):
        factor = _umath_linalg.cholesky_lo(gram, signature="D->D")
    return ~np.any(np.isnan(factor[:, diagonal, diagonal]), axis=1)


def sigma_min_probe(op: TruncatedDiracOperator, count: int = 10000,
                    seed: int = 0, threads: int = 1) -> float:
    """Randomized lower-bound companion: min |D phi| over random unit phi.

    Always at least sigma_min; used to cross-check reported minima from the
    inequality side.  Needs at least one probe vector.  The vectors are
    drawn in column chunks of width max(1, min(count, PROBE_CHUNK_BYTES /
    (16 dim))), chunk c from its own generator, the c-th child of
    SeedSequence(seed), and the result is the least over the chunks: it
    depends on seed, count and dim, never on `threads`.  Each chunk is
    multiplied block by block, prod[rows] = stack @ phi[rows], so no dense
    fiber is built: a chunk holds four arrays (vectors, product and the two
    of one stack), each at most PROBE_CHUNK_BYTES (2 MiB), whatever the
    fiber's dimension.  With `threads` > 1 the chunks run on that many
    threads (at most one per chunk and per usable core), after numpy's BLAS
    is set to one thread; the RNG fills, ufuncs and products release the
    GIL, and the threads are joined before returning.
    """
    if count < 1:
        raise ValueError("the probe needs count >= 1")
    width = max(1, min(count, PROBE_CHUNK_BYTES // (16 * op.dim)))
    starts = range(0, count, width)
    seeds = np.random.SeedSequence(seed).spawn(len(starts))

    def chunk_min(c: int) -> float:
        rng = np.random.default_rng(seeds[c])
        b = min(width, count - starts[c])
        phi = np.empty((op.dim, b), dtype=complex)
        phi.real = rng.standard_normal((op.dim, b))
        phi.imag = rng.standard_normal((op.dim, b))
        phi /= np.linalg.norm(phi, axis=0, keepdims=True)
        prod = np.empty_like(phi)
        for rows, stack in op.blocks:
            prod[rows] = stack @ phi[rows]
        return float(np.min(np.linalg.norm(prod, axis=0)))

    blas_single_threaded()
    workers = min(threads, len(seeds), _usable_cores())
    if workers <= 1:
        return min(map(chunk_min, range(len(seeds))))
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        return min(pool.map(chunk_min, range(len(seeds))))
