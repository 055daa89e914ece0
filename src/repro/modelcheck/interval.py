"""Certified interval value iteration over compiled MDPs.

Plain value iteration stops when one sweep moves no value by more than
``epsilon`` — a criterion that says nothing about the distance to the true
fixpoint (a rate-``1 - 1e-6`` contraction can sit ``1e6 * epsilon`` away
while passing it).  This module replaces that with *certified* solving:

* **Interval iteration** (Haddad–Monmege): maintain a lower iterate started
  from 0 and an upper iterate started from 1 (probabilities), each updated
  monotonically (``l <- max(l, Phi(l))``, ``u <- min(u, Phi(u))``).  Both
  bracket the true value at every sweep, so ``u - l <= epsilon`` is a real
  error certificate.  Uniqueness of the fixpoint — required for the upper
  iterate to descend all the way — is guaranteed by the qualitative
  prob0/prob1 pinning done by the caller (:mod:`.precompute`) plus, for
  ``Pmax``, end-component *deflation* (Kelmendi/Kretinsky/Weininger): each
  sweep caps the upper values of every maximal end component by its best
  exit value, destroying the spurious fixpoints ECs otherwise sustain.

* **Optimistic value iteration** (Hartmanns–Kaminski) for expected total
  rewards, where there is no natural finite upper starting point: converge
  the lower iterate, guess ``u = l + d``, and verify the guess by checking
  ``Phi(u) <= u`` pointwise — which, the fixpoint being unique on the
  pinned system, proves ``u`` is a true upper bound.  Failed guesses grow
  ``d`` geometrically and retry.

* **Verified Aitken acceleration** for slowly mixing components (escape
  mass ``q`` per sweep means plain iteration needs ``~log(eps)/log(1-q)``
  sweeps).  Periodically each state extrapolates its own geometric limit
  from two consecutive sweep deltas (``est = v + d * rho / (1 - rho)``
  with per-state ``rho = d_k / d_{k-1}``), the estimate is *smoothed* by a
  few plain Bellman applications (the extrapolation cancels the dominant
  error mode; what remains is subdominant and decays fast), and bound
  candidates ``est -/+ delta`` — with ``delta`` scaled to the smoothed
  estimate's own residual — are accepted only when one Bellman application
  certifies them (``Phi(c) >= c`` below, ``Phi(c) <= c`` above, under the
  deflated operator where deflation is in play).  A candidate that fails
  is discarded and plain sweeping continues — acceleration never weakens
  the certificate, it only jumps the bracket when the jump is provably
  safe.

* **Topological SCC ordering**: the unknown states are decomposed into
  strongly connected components (``scipy.sparse.csgraph``) and solved one
  condensation level at a time, successors first.  Acyclic layers — the
  common case in frontier-restricted routing models — resolve in one
  sweep each instead of participating in global sweeps, and each level
  iterates against already-certified successor bounds.  Per-level gap
  targets increase strictly with the level (``epsilon * (1/2 + ...)``),
  which keeps termination guaranteed: a level's achievable gap is bounded
  by its successors' (smaller) certified gap.

* **One padded matrix per level** (:class:`_SlotLayout`): a level's
  choice rows laid out slot-major and padded to a ``(slots, states)``
  grid, over the level's states and its exit states.  Every Bellman
  application of a reward level, the settling prelude and policy
  iteration (improvement, the policy block, the exit policy) read it;
  per-state optima and greedy choices are axis-0 reductions of the grid.

The module is deliberately free of model/label handling — callers hand in
masks (probability) or one condensation level at a time (rewards:
:func:`_solve_reward_level`, driven by :mod:`.compiled` over the level
layouts that :mod:`.batch` keeps per support); :mod:`.compiled` owns the
public query API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from repro import perf

#: Pointwise slack for Bellman-domination checks (seed verification, OVI
#: acceptance, extrapolation acceptance); scaled by ``1 + |value|`` so it
#: stays meaningful for rewards.
_CHECK_RTOL = 1e-12

#: Sweeps spent trying to verify one OVI guess before growing the offset.
_OVI_VERIFY_SWEEPS = 12

#: Growth factor for the OVI offset after a failed verification.
_OVI_GROWTH = 8.0

#: Sweeps between Aitken acceleration attempts.  Solves that finish within
#: one window — the common warm-started production case — never pay for
#: acceleration at all.
_EXTRAP_EVERY = 32

#: Plain Bellman applications smoothing an extrapolated estimate before
#: bound candidates are built from it.  The extrapolation cancels the
#: dominant (slow) error mode; smoothing damps the per-state noise that
#: would otherwise straddle the fixpoint and fail the pointwise checks.
_SMOOTH_SWEEPS = 8

#: Growth factor between the two slack rungs tried per acceleration
#: attempt (candidates ``est -/+ delta`` and ``est -/+ 64 delta``).
_SLACK_GROWTH = 64.0

#: Largest SCC block solved by policy iteration before falling back to
#: accelerated sweeping outright.  Slowly mixing blocks — escape mass per
#: sweep near zero — make any sweep-based scheme crawl; a policy's exact
#: value costs one linear solve and verifies immediately, so direct
#: solving skips iteration entirely.  Every evaluation factorizes the
#: policy's ``I - P_pi`` by sparse LU in the policy's own condensation
#: order with diagonal pivots (:func:`_evaluate`): the matrix is block
#: triangular there, so the factors fill in only inside the policy's
#: multi-state strong components — in the routing MDPs rare and of two
#: states.  The cap only guards against pathological blocks where one
#: large cyclic component could make factorization dwarf the sweeps it
#: replaces.
_SPARSE_DIRECT_MAX = 65536

#: Policy-improvement rounds before the direct solver gives up.
_PI_MAX_ROUNDS = 64

#: Value-iteration prelude inside the direct solver: greedy policies
#: stabilize long before values converge, and a sweep costs a sparse
#: matvec while a policy evaluation costs an LU factorization.  Most
#: prelude sweeps update values only (one per-state reduction); every
#: ``_PI_PRELUDE_CHECK`` sweeps the greedy policy is extracted and a held
#: policy updated by policy iteration's own rule — switch a state only on
#: *strict* q-improvement beyond the check margin, so ties between
#: equivalent actions cannot flap the policy forever.  After
#: ``_PI_PRELUDE_STABLE`` consecutive improvement-free checks the held
#: policy goes to policy iteration, which then typically accepts it after
#: a single exact solve.
_PI_PRELUDE_CHECK = 4
_PI_PRELUDE_STABLE = 1

#: Sweep cap for one settling stretch; a policy that has not stopped
#: improving by then is handed to policy iteration as-is (the exact
#: solves take over the remaining improvement).
_PI_PRELUDE_MAX = 256


@dataclass(frozen=True)
class IntervalSolution:
    """Certified bounds: ``lower <= value <= upper`` pointwise.

    ``iterations`` counts Bellman applications across all levels (sweeps
    plus seed-verification, OVI-verification, smoothing and
    acceptance-check applications); ``levels`` is the number of
    condensation levels the unknown region decomposed into.
    """

    lower: np.ndarray
    upper: np.ndarray
    iterations: int
    levels: int

    @property
    def gap(self) -> float:
        finite = np.isfinite(self.lower) & np.isfinite(self.upper)
        if not finite.any():
            return 0.0
        return float(np.max(self.upper[finite] - self.lower[finite]))


class NonConvergence(RuntimeError):
    """The iteration budget ran out before the gap closed."""


def _rows(cm) -> sparse.csr_matrix:
    """Transition matrix without the padding row of a choiceless model."""
    t = cm.transitions
    if t.shape[0] != cm.num_choices:
        t = t[: cm.num_choices]
    return t


def _entries(cm) -> tuple[np.ndarray, np.ndarray]:
    """COO view ``(choice_row, successor_col)`` of the real transitions."""
    t = _rows(cm)
    indptr = t.indptr
    cols = t.indices
    rows = np.repeat(np.arange(t.shape[0], dtype=np.int64), np.diff(indptr))
    return rows, cols


@dataclass(frozen=True)
class _Segments:
    """Per-owner segments of a set of choices (support-derived).

    Compiled models group choices by owner state in ascending order, so
    the owners ``own`` of any ascending choice subset split into
    contiguous per-owner segments.  A per-state reduction over the set
    is then one ``reduceat`` over the segment starts: strategy
    extraction's, and the probability path's sweeps.  The structure
    depends on the owners only, so the solver memo (:mod:`.batch`) keeps
    the extraction mask's; it holds nothing per choice.
    """

    n: int  # length of per-state outputs (the model's state count)
    owners: np.ndarray  # owner state of each segment, ascending
    starts: np.ndarray  # first choice of each segment
    counts: np.ndarray  # choices in each segment

    @classmethod
    def of(cls, own: np.ndarray, n: int) -> "_Segments":
        """The segments of ``own``; raises ``ValueError`` when unsorted."""
        if np.any(own[1:] < own[:-1]):
            raise ValueError("choice owners must be grouped ascending")
        starts = np.flatnonzero(np.r_[True, own[1:] != own[:-1]]) \
            if own.size else np.zeros(0, dtype=np.intp)
        return cls(n=n, owners=own[starts].astype(np.intp), starts=starts,
                   counts=np.diff(np.r_[starts, own.size]))

    def _best(self, q: np.ndarray, maximize: bool) -> np.ndarray:
        red = np.maximum.reduceat if maximize else np.minimum.reduceat
        return red(q, self.starts)

    def opt(self, q: np.ndarray, maximize: bool) -> np.ndarray:
        """Per-state optimum of per-choice values (±inf where no choice)."""
        out = np.full(self.n, -np.inf if maximize else np.inf)
        out[self.owners] = self._best(q, maximize)
        return out

    def _first(self, hit: np.ndarray) -> np.ndarray:
        """Per segment, the lowest choice where ``hit`` holds (else the
        block size)."""
        return np.minimum.reduceat(
            np.where(hit, np.arange(hit.size), hit.size), self.starts
        )

    def canonical(self, q: np.ndarray, maximize: bool,
                  band: float) -> np.ndarray:
        """Each segment's lowest choice within the finite ``band`` of its
        optimum.

        An infinite optimum ties only exactly (``|q - inf|`` is never
        within the band); a segment whose optimum is NaN has no such
        choice and gets -1.  This is strategy extraction's tie rule (see
        :func:`.compiled._extract`).
        """
        best = np.repeat(self._best(q, maximize), self.counts)
        with np.errstate(invalid="ignore"):
            hit = (np.abs(q - best) <= band) | (q == best)
        first = self._first(hit)
        return np.where(first < q.size, first, -1)


def _scc_levels(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    owners: np.ndarray,
    state_mask: np.ndarray,
    choice_mask: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Topological levels of the masked sub-MDP, successors first.

    Returns ``(level_of_state, num_levels)`` with ``level_of_state[s] = -1``
    outside the mask.  States in level ``k`` only depend (transitively,
    within the mask) on states in levels ``< k`` and on their own strongly
    connected component.

    ``rows`` ascend and choices are grouped by owner in ascending order,
    so the masked state edges are already grouped by source: the state
    graph is laid out as CSR directly, and only each row's successors
    are sorted, to merge repeats (scipy's strong components do not
    terminate on a graph that repeats an edge).
    """
    sel = choice_mask[rows] & state_mask[cols]
    src = owners[rows[sel]]
    dst = cols[sel]
    keep = state_mask[src] & (src != dst)
    src, dst = src[keep], dst[keep]

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    adj = _raw_csr(np.ones(dst.size), dst.astype(np.int32), indptr, (n, n))
    adj.sum_duplicates()
    ncomp, comp = csgraph.connected_components(
        adj, directed=True, connection="strong"
    )
    csrc, cdst = comp[src], comp[dst]
    cross = csrc != cdst
    if cross.any():
        key = csrc[cross].astype(np.int64) * ncomp + cdst[cross]
        pairs = np.unique(key)
        esrc = pairs // ncomp
        edst = pairs % ncomp
    else:
        esrc = np.empty(0, dtype=np.int64)
        edst = np.empty(0, dtype=np.int64)

    relevant = np.zeros(ncomp, dtype=bool)
    relevant[comp[state_mask]] = True
    resolved = ~relevant
    level_of_comp = np.full(ncomp, -1, dtype=np.int64)
    active = np.ones(esrc.size, dtype=bool)
    level = 0
    while True:
        outdeg = np.bincount(esrc[active], minlength=ncomp)
        ready = ~resolved & (outdeg == 0)
        if not ready.any():
            break
        level_of_comp[ready] = level
        resolved |= ready
        active &= ~resolved[edst]
        level += 1
    if not resolved.all():  # pragma: no cover - condensations are acyclic
        level_of_comp[~resolved] = level
        level += 1
    level_of_state = np.where(state_mask, level_of_comp[comp], -1)
    return level_of_state, level


def _mec_info(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    owners: np.ndarray,
    state_mask: np.ndarray,
    choice_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximal end components of the masked sub-MDP.

    Returns ``(mec_of_state, exit_mask, count)``: ``mec_of_state[s]`` is the
    MEC id of ``s`` (-1 when ``s`` is in no MEC); ``exit_mask`` marks the
    candidate choices owned by MEC states whose support leaves the MEC —
    the choices deflation maximizes over.

    Standard refinement: repeatedly drop choices that leak outside the
    surviving states or cross SCCs, then drop states left without choices,
    until stable.  Surviving SCCs are genuine end components (every
    survivor owns a choice fully inside its component).
    """
    nc = owners.size
    alive_s = state_mask.copy()
    alive_c = choice_mask.copy()
    comp = np.zeros(n, dtype=np.int64)
    while True:
        alive_c = alive_c & alive_s[owners]
        leak = np.zeros(nc, dtype=bool)
        np.logical_or.at(leak, rows[~alive_s[cols]], True)
        alive_c = alive_c & ~leak
        if not alive_c.any():
            alive_s = np.zeros(n, dtype=bool)
            break
        sel = alive_c[rows]
        src = owners[rows[sel]]
        dst = cols[sel]
        adj = sparse.csr_matrix(
            (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
        )
        _, comp = csgraph.connected_components(
            adj, directed=True, connection="strong"
        )
        cross = np.zeros(nc, dtype=bool)
        np.logical_or.at(cross, rows[comp[owners[rows]] != comp[cols]], True)
        new_c = alive_c & ~cross
        new_s = np.zeros(n, dtype=bool)
        new_s[owners[new_c]] = True
        new_s &= alive_s
        if np.array_equal(new_c, alive_c) and np.array_equal(new_s, alive_s):
            break
        alive_c, alive_s = new_c, new_s

    mec_of_state = np.full(n, -1, dtype=np.int64)
    if not alive_s.any():
        return mec_of_state, np.zeros(nc, dtype=bool), 0
    uniq, inv = np.unique(comp[alive_s], return_inverse=True)
    mec_of_state[alive_s] = inv
    exit_mask = choice_mask & alive_s[owners] & ~alive_c
    return mec_of_state, exit_mask, int(uniq.size)


def _deflate(
    per_state: np.ndarray,
    q_upper: np.ndarray,
    idx: np.ndarray,
    owners: np.ndarray,
    mec_of_state: np.ndarray,
    exit_mask: np.ndarray,
    mec_count: int,
) -> None:
    """Cap each MEC's values by its best exit value (in place).

    ``q_upper`` are the q-values of the choices ``idx`` (aligned with
    ``idx``); exit choices among them bound what the MEC can achieve by
    ever leaving, and a probability-1 ``Pmax`` MEC would have been pinned
    by precomputation, so the cap is sound and removes the spurious
    internal fixpoints.
    """
    ex = exit_mask[idx]
    if not ex.any():
        return
    caps = np.full(mec_count, -np.inf)
    np.maximum.at(caps, mec_of_state[owners[idx[ex]]], q_upper[ex])
    states = np.flatnonzero(mec_of_state >= 0)
    capped = caps[mec_of_state[states]]
    usable_cap = np.isfinite(capped)
    states = states[usable_cap]
    np.minimum.at(per_state, states, capped[usable_cap])


def _level_targets(epsilon: float, num_levels: int) -> np.ndarray:
    """Strictly increasing per-level gap targets, all ``<= epsilon``.

    A level's reachable gap is limited by its successors' certified gap;
    giving earlier (successor) levels strictly tighter targets keeps every
    level's own target reachable in finitely many sweeps.
    """
    k = np.arange(1, num_levels + 1, dtype=float)
    return epsilon * (0.5 + 0.5 * k / num_levels)


def _aitken(
    values: np.ndarray, d: np.ndarray, prev_d: np.ndarray, toward_upper: bool
) -> np.ndarray | None:
    """Per-state geometric limit estimate from two consecutive deltas.

    Each state extrapolates ``v + d * rho / (1 - rho)`` (added when the
    iterate climbs, subtracted when it descends) with its own observed
    ratio ``rho = d_k / d_{k-1}``.  Returns ``None`` when no state shows
    geometric progress.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(prev_d > 0, d / prev_d, 0.0)
    rho = np.clip(rho, 0.0, 1.0 - 1e-9)
    if not (rho > 0).any():
        return None
    jump = d * (rho / (1.0 - rho))
    return values + jump if toward_upper else values - jump


def _exit_policy(level: "_SlotLayout",
                 P: sparse.csr_matrix) -> np.ndarray | None:
    """A proper policy: each state steps toward the level's exits.

    Backward BFS from the exit columns: a state is assigned its first
    choice whose support hits the already-reached set, so every state's
    chosen action has positive probability of moving strictly closer to
    leaving the level.  Returns padded rows of ``P`` (``level``'s matrix)
    aligned with the sorted states, or ``None`` if some state cannot
    reach an exit (an absorbing block — its values diverge and no proper
    policy exists).
    """
    n = level.states.size
    support = P > 0
    joined = np.ones(level.cols.size, dtype=bool)
    joined[level.inner] = False
    owner = np.arange(level.choice.size) % n  # state of each padded row
    chosen = np.full(n, -1, dtype=np.int64)
    while True:
        hits = (support @ joined.astype(np.int8)) > 0
        ready = np.flatnonzero(hits & (chosen[owner] == -1))
        if ready.size == 0:
            break
        _, first = np.unique(owner[ready], return_index=True)
        sel = ready[first]
        chosen[owner[sel]] = sel
        joined[level.inner[owner[sel]]] = True
    return chosen if bool(np.all(chosen >= 0)) else None


#: The attributes of an empty matrix made by the public constructor, taken
#: before any format flag is computed; :func:`_raw_csr` starts each matrix
#: from a copy of them, so no flag is ever inherited (a copied
#: ``has_canonical_format`` would make ``sum_duplicates`` a no-op).
_CSR_ATTRS = dict(sparse.csr_matrix((0, 0)).__dict__)


def _raw_csr(data, indices, indptr, shape) -> sparse.csr_matrix:
    """CSR from pre-validated arrays, skipping the constructor entirely.

    The arrays come from skeletons derived off a canonical matrix (or a
    gather through one), or from row counts the caller laid out itself
    (the build's and the SCC levels' state graphs), so re-running
    ``check_format`` per model per level would only re-verify what the
    construction guarantees.  Even an empty ``csr_matrix(shape)``
    allocates and checks a zero ``indptr``; copying the prototype's
    attributes and setting the arrays and shape costs none of that.
    """
    out = sparse.csr_matrix.__new__(sparse.csr_matrix)
    out.__dict__.update(_CSR_ATTRS)
    out._shape = shape
    out.data = data
    out.indices = indices
    out.indptr = indptr
    return out


def _rows_of(indptr: np.ndarray, rows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry positions of the CSR rows ``rows``, in that order:
    ``(pos, lens, ends)``, row ``k`` holding the ``lens[k]`` positions
    ``pos[ends[k] - lens[k]:ends[k]]``."""
    start = indptr[rows].astype(np.int64)
    lens = indptr[rows + 1] - start
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(start - (ends - lens), lens) + np.arange(total), \
        lens, ends


@dataclass(frozen=True)
class _SlotLayout:
    """One condensation level's choice rows as a slot-major padded matrix.

    Row ``j * n + s`` is the ``j``-th choice (in choice-index order) of
    the level's ``s``-th state, or an empty *pad* row where that state
    has fewer than ``j + 1`` choices; a state that owns no choice is an
    all-pad column of the ``(slots, n)`` grid.  The columns are the
    level's states and its exit states (successors outside the level),
    renumbered in ascending global order (``cols``), and every row keeps
    its entries in the model's order.  So a matvec against ``vec[cols]``
    sums each choice's terms exactly as the model's own rows do; with the
    exit columns zeroed, the exit terms enter as exact ``+0.0``.  A
    per-state optimum is one axis-0 reduction of the grid (pad rows read
    ``±inf``, the choiceless state's value), and ``argmin``/``argmax``'s
    first-occurrence rule picks the lowest choice index among ties.

    The layout depends on the support only: a model's matrix is one
    gather of its ``T.data`` (:meth:`matrix`).  The solver memo
    (:mod:`.batch`) keeps one per level of a reward context; the
    probability path builds its own per solve.
    """

    states: np.ndarray  # the level's states, ascending
    cols: np.ndarray  # global state of each column, ascending
    inner: np.ndarray  # column of each of ``states``
    slots: int
    choice: np.ndarray  # global choice per padded row (-1: pad)
    # int32 and read with ``np.take``: ``gather`` (``T.data`` positions
    # in padded-row order) and ``indices`` are the layout's largest arrays.
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def of(cls, T: sparse.csr_matrix, idx: np.ndarray, own: np.ndarray,
           states: np.ndarray) -> "_SlotLayout":
        """The layout of the choices ``idx`` (owners ``own``, each one of
        the sorted ``states``) of the rows ``T``.  Global states map to
        positions and columns through lookup tables over ``T``'s
        columns, so no pass sorts or searches."""
        n = states.size
        at = np.zeros(T.shape[1], dtype=np.intp)
        at[states] = np.arange(n)
        pos = at[own]
        counts = np.bincount(pos, minlength=n)
        slots = max(int(counts.max(initial=0)), 1)
        order = np.argsort(pos, kind="stable")
        rank = np.empty(own.size, dtype=np.int64)
        rank[order] = (np.arange(own.size)
                       - (np.cumsum(counts) - counts)[pos[order]])
        choice = np.full(slots * n, -1, dtype=np.int32)
        choice[rank * n + pos] = idx
        used = choice >= 0
        gather, lens, _ = _rows_of(T.indptr, choice[used])
        succ = T.indices[gather]
        member = np.zeros(T.shape[1], dtype=bool)
        member[states] = True
        member[succ] = True
        column = np.cumsum(member) - 1  # column of each member state
        row_len = np.zeros(slots * n, dtype=np.int64)
        row_len[used] = lens
        return cls(
            states=states,
            cols=np.flatnonzero(member),
            inner=column[states],
            slots=slots,
            choice=choice,
            gather=gather.astype(np.int32),
            indices=column[succ].astype(np.int32),
            indptr=np.r_[0, np.cumsum(row_len)].astype(np.int32),
        )

    def matrix(self, T: sparse.csr_matrix) -> sparse.csr_matrix:
        """The padded matrix of the model whose rows are ``T``."""
        return _raw_csr(np.take(T.data, self.gather), self.indices,
                        self.indptr, (self.choice.size, self.cols.size))

    def padded(self, values: np.ndarray, maximize: bool) -> np.ndarray:
        """Per-choice ``values`` per padded row; a pad row reads the
        objective's worst value (``-inf`` maximizing, else ``inf``)."""
        used = self.choice >= 0
        out = np.full(self.choice.size, -np.inf if maximize else np.inf)
        out[used] = values[self.choice[used]]
        return out

    def opt(self, q: np.ndarray, maximize: bool) -> np.ndarray:
        """Per-state optimum of padded-row values."""
        grid = q.reshape(self.slots, self.states.size)
        return grid.max(axis=0) if maximize else grid.min(axis=0)

    def argopt(self, q: np.ndarray, maximize: bool) -> np.ndarray:
        """Each state's optimal padded row, ties toward the lowest
        choice."""
        n = self.states.size
        grid = q.reshape(self.slots, n)
        best = grid.argmax(axis=0) if maximize else grid.argmin(axis=0)
        return best * n + np.arange(n)

    def spread(self, x: np.ndarray) -> np.ndarray:
        """A column vector holding ``x`` at the level's states and exact
        zeros at its exits."""
        out = np.zeros(self.cols.size)
        out[self.inner] = x
        return out

    def policy_block(self, P: sparse.csr_matrix,
                     chosen: np.ndarray) -> sparse.csr_matrix:
        """``P_pi``: the in-level part of the rows ``chosen`` (one per
        state), square over the states, each row in its model order."""
        n = chosen.size
        pos, lens, _ = _rows_of(P.indptr, chosen)
        at = np.full(self.cols.size, -1, dtype=np.intc)
        at[self.inner] = np.arange(n, dtype=np.intc)
        col = at[P.indices[pos]]
        keep = col >= 0
        counts = np.bincount(np.repeat(np.arange(n), lens)[keep],
                             minlength=n)
        return _raw_csr(P.data[pos[keep]], col[keep],
                        np.r_[0, np.cumsum(counts)].astype(np.intc), (n, n))


def _settle(
    level: _SlotLayout,
    P: sparse.csr_matrix,
    base: np.ndarray,
    x: np.ndarray,
    budget: "_Budget",
    *,
    maximize: bool,
) -> np.ndarray | None:
    """The value-iteration settling prelude: the level's held policy.

    Sweeps ``x <- opt(base + P @ spread(x))`` from ``x``, ``base`` holding
    each padded row's reward and exit terms.  Every
    ``_PI_PRELUDE_CHECK``-th sweep takes the greedy policy and updates
    the held one by policy iteration's rule (switch a state only on
    strict improvement beyond the check margin); ``_PI_PRELUDE_STABLE``
    consecutive improvement-free checks, or ``_PI_PRELUDE_MAX`` sweeps,
    end it.  Each sweep ticks ``budget`` once.  Returns padded rows
    aligned with the sorted states, or ``None`` (after one tick) when
    some state owns no choice: no policy covers the level.
    """
    n = level.states.size
    if not bool(np.all(level.choice[:n] >= 0)):
        budget.tick()
        return None
    held = None
    stable = 0
    for k in range(_PI_PRELUDE_MAX):
        budget.tick()
        q = base + P @ level.spread(x)
        if (k + 1) % _PI_PRELUDE_CHECK:
            x = level.opt(q, maximize)
            continue
        greedy = level.argopt(q, maximize)
        best = q[greedy]
        x = best
        if held is None:
            held = greedy
            continue
        cur = q[held]
        margin = _CHECK_RTOL * (1.0 + np.abs(cur))
        # An infinite held value has an infinite margin: ``inf - inf`` is
        # NaN, which compares False, so the held choice stays.
        with np.errstate(invalid="ignore"):
            improve = (best > cur + margin) if maximize \
                else (best < cur - margin)
        if improve.any():
            held = np.where(improve, greedy, held)
            stable = 0
        else:
            stable += 1
            if stable >= _PI_PRELUDE_STABLE:
                break
    return held


def _policy_fixpoint(
    level: _SlotLayout,
    P: sparse.csr_matrix,
    reward: np.ndarray,
    outside: np.ndarray,
    budget: "_Budget",
    *,
    maximize: bool,
) -> np.ndarray | None:
    """Exact level values by policy iteration with direct linear solves.

    ``P`` is the level's padded matrix and ``reward`` its padded rewards
    (:meth:`_SlotLayout.padded`); ``outside`` supplies certified values
    for the exit states (its entries at the level's states are ignored).
    Each round solves ``(I - P_pi) x = r_pi + P_pi->outside`` for the
    current policy (:func:`_evaluate`) and improves it; improvement
    switches a state's action only on *strict* q-value improvement, so
    starting from the proper exit policy the iteration can never drift
    into an improper (forever-looping) policy through ties, and a stable
    policy's value is the Bellman fixpoint to machine precision.  Returns
    the last solvable iterate (``None`` when no proper start exists or
    the first system is singular/non-finite); the caller certifies the
    result before trusting it, so a stale or garbage iterate merely fails
    verification.

    The starting policy comes from the value-iteration prelude
    (:func:`_settle`): greedy policies settle long before values
    converge, and a sweep costs a sparse matvec while a policy
    evaluation costs a factorization.  A prelude policy is not
    guaranteed proper (it can loop inside the level), so a singular or
    non-finite evaluation restarts once from the backward-BFS exit
    policy, which is.
    """
    x0 = outside[level.states]
    x0[~np.isfinite(x0)] = 0.0
    exits = outside[level.cols]
    exits[level.inner] = 0.0
    base = reward + P @ exits
    held = _settle(level, P, base, x0, budget, maximize=maximize)
    fellback = held is None
    if fellback:
        held = _exit_policy(level, P)
        if held is None:
            return None
    return _pi_rounds(level, P, base, held, budget, maximize=maximize,
                      fellback=fellback)


def _policy_matrix(
    Ppi: sparse.csr_matrix,
) -> tuple[sparse.csc_matrix, np.ndarray]:
    """``I - P_pi`` of the policy block ``Ppi``, in its condensation order.

    ``Ppi`` is square (:meth:`_SlotLayout.policy_block`): row ``s`` is
    state ``s``'s chosen row inside the level.  Returns ``(M, order)``:
    position ``k`` is state ``order[k]``, and the CSC matrix ``M`` is the
    *transpose* of ``I - P_pi`` — its arrays are the CSR arrays of
    ``I - P_pi``, row ``k`` being state ``order[k]``'s row negated plus a
    diagonal 1 (a self-loop's ``-p`` and that 1 are summed to ``1 - p``).

    States are sorted by their strong component stably, so each
    component is contiguous, with the component order reversed: scipy
    labels components in the order Pearce's algorithm completes them,
    sinks first, so here every transition to another component points to
    a later position.  ``I - P_pi`` is then block upper triangular, and
    ``M`` block lower triangular — the orientation in which SuperLU's
    column-by-column factorization has nothing to update.  Counts
    ``vi.pi.cyclic`` when some component has more than one state.
    """
    n = Ppi.shape[0]
    ncomp, label = csgraph.connected_components(
        Ppi, directed=True, connection="strong"
    )
    if ncomp < n:
        perf.incr("vi.pi.cyclic")
    order = np.argsort(label, kind="stable")[::-1]
    rank = np.empty(n, dtype=np.intc)
    rank[order] = np.arange(n, dtype=np.intc)
    pos, lens, ends = _rows_of(Ppi.indptr, order)
    # Row k: the chosen row's entries negated, then the diagonal 1.
    diag = np.arange(n, dtype=np.intc)
    at = np.arange(pos.size) + np.repeat(diag, lens)
    data = np.ones(pos.size + n)
    data[at] = -Ppi.data[pos]
    indices = np.empty(pos.size + n, dtype=np.intc)
    indices[at] = rank[Ppi.indices[pos]]
    indices[ends + diag] = diag
    M = sparse.csc_matrix(
        (data, indices, np.r_[0, ends + diag + 1].astype(np.intc)),
        shape=(n, n),
    )
    M.sum_duplicates()
    return M, order


def _evaluate(Ppi: sparse.csr_matrix, b: np.ndarray) -> np.ndarray:
    """The value of the policy whose block is ``Ppi``: solves
    ``(I - P_pi) x = b``.

    For a proper policy ``I - P_pi`` is a nonsingular M-matrix, so every
    symmetric permutation of it (and of its transpose) has an LU
    factorization without pivoting, with positive pivots.  SuperLU
    therefore factors the transpose in the policy's condensation order
    (:func:`_policy_matrix`) with diagonal pivots, and the factors fill
    in only inside the multi-state strong components; the solve applies
    the transpose back.  Panels of one column and no relaxed supernodes
    suit a matrix that is triangular but for components of a few states:
    with SuperLU's default panel size and supernode relaxation the
    factorization took ~1.5x as long on captured lifetime blocks.  An
    improper policy's trapped component leaves a zero pivot, and ``splu``
    raises ``RuntimeError``.
    """
    M, order = _policy_matrix(Ppi)
    perf.incr("vi.pi.factorizations")
    lu = sparse_linalg.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                            panel_size=1, relax=1)
    x = np.empty(b.size)
    x[order] = lu.solve(b[order], trans="T")
    return x


def _pi_rounds(
    level: _SlotLayout,
    P: sparse.csr_matrix,
    base: np.ndarray,
    chosen: np.ndarray,
    budget: "_Budget",
    *,
    maximize: bool,
    fellback: bool,
) -> np.ndarray | None:
    """Policy-improvement rounds from a held starting policy (padded rows
    of ``P``; the exact-solve half of :func:`_policy_fixpoint`)."""
    x = None
    for _ in range(_PI_MAX_ROUNDS):
        budget.tick()
        perf.incr("vi.pi.rounds")
        try:
            xn = _evaluate(level.policy_block(P, chosen), base[chosen])
        except RuntimeError:
            xn = None
        if xn is None or not np.all(np.isfinite(xn)):
            if fellback:
                return x
            fellback = True
            chosen = _exit_policy(level, P)
            if chosen is None:
                return x
            continue
        x = xn
        q = base + P @ level.spread(x)
        greedy = level.argopt(q, maximize)
        best = q[greedy]
        cur = q[chosen]
        margin = _CHECK_RTOL * (1.0 + np.abs(cur))
        # An infinite current value has an infinite margin: ``inf - inf``
        # is NaN, which compares False, so the chosen choice stays.
        with np.errstate(invalid="ignore"):
            improve = (best > cur + margin) if maximize \
                else (best < cur - margin)
        if not improve.any():
            return x
        chosen = np.where(improve, greedy, chosen)
    return x


def _window_error(resid: float, norm_now: float, norm_then: float,
                  window: int) -> float:
    """Distance-to-fixpoint scale from a residual and a windowed rate.

    The contraction rate is estimated as the geometric mean of the sweep
    deltas over the attempt window — far more stable than single-step
    ratios, whose noise near 1 explodes ``rho / (1 - rho)``.  Returns
    ``inf`` when the window shows no geometric progress.
    """
    if not (0.0 < norm_now < norm_then):
        return np.inf
    rho = (norm_now / norm_then) ** (1.0 / window)
    return resid * rho / (1.0 - rho)


class _Budget:
    """Shared application counter enforcing the caller's iteration cap."""

    __slots__ = ("iterations", "max_iterations", "message")

    def __init__(self, max_iterations: int, message: str) -> None:
        self.iterations = 0
        self.max_iterations = max_iterations
        self.message = message

    def tick(self) -> None:
        if self.iterations >= self.max_iterations:
            raise NonConvergence(self.message)
        self.iterations += 1


def _tighten(
    lower: np.ndarray,
    upper: np.ndarray,
    block: np.ndarray,
    phi_plain,
    phi_check,
    budget: _Budget,
    *,
    target: float,
    hi: float,
) -> None:
    """Joint monotone tightening of ``lower``/``upper`` over ``block``.

    ``block`` indexes the level's states; ``phi_plain`` drives the sweeps
    and ``phi_check`` is the operator used for certification (the
    deflated one under ``Pmax``, otherwise the same), each returning its
    values at ``block`` only.
    Every :data:`_EXTRAP_EVERY` sweeps the slower side's Aitken estimate is
    smoothed and turned into verified bound candidates ``est -/+ delta``;
    accepted candidates jump the bracket, rejected ones cost one check
    application each and plain sweeping resumes.  Values are clipped to
    ``[0, hi]``.
    """
    slack0 = target / 4.0
    d_l = d_u = prev_d_l = prev_d_u = None
    sweeps = 0
    mark = 0
    nl_mark = nu_mark = np.inf
    while True:
        if float(np.max(upper[block] - lower[block])) <= target:
            return
        budget.tick()
        sweeps += 1
        new_l = np.maximum(lower[block], phi_plain(lower))
        new_u = np.minimum(upper[block], phi_check(upper))
        prev_d_l, prev_d_u = d_l, d_u
        d_l = new_l - lower[block]
        d_u = upper[block] - new_u
        lower[block] = new_l
        upper[block] = new_u
        if sweeps - mark < _EXTRAP_EVERY or prev_d_l is None:
            continue
        window = sweeps - mark
        mark = sweeps
        nl, nu = float(np.max(d_l)), float(np.max(d_u))
        from_upper = nu >= nl
        if from_upper:
            guess = _aitken(upper[block], d_u, prev_d_u, toward_upper=False)
            norm_now, norm_then = nu, nu_mark
        else:
            guess = _aitken(lower[block], d_l, prev_d_l, toward_upper=True)
            norm_now, norm_then = nl, nl_mark
        nl_mark, nu_mark = nl, nu
        if guess is None:
            continue
        est = np.clip(guess, 0.0, hi)
        # Smooth against the midpoint of the certified surroundings; the
        # residual of the last application scales the candidate slack.
        base = 0.5 * (lower + upper)
        resid = np.inf
        for _ in range(_SMOOTH_SWEEPS):
            budget.tick()
            vec = base.copy()
            vec[block] = est
            new_est = np.clip(phi_check(vec), 0.0, hi)
            resid = float(np.max(np.abs(new_est - est)))
            est = new_est
        err = _window_error(resid, norm_now, norm_then, window)
        gap = float(np.max(upper[block] - lower[block]))
        delta = max(slack0, min(err, gap / 4.0))
        got_l = got_u = False
        for _ in range(2):
            if not got_l:
                cand = np.maximum(lower[block], est - delta)
                if float(np.max(cand - lower[block])) > 0.0:
                    vec = lower.copy()
                    vec[block] = cand
                    budget.tick()
                    tol = 2.0 * _CHECK_RTOL * (1.0 + float(np.max(np.abs(cand))))
                    if bool(np.all(phi_check(vec) >= cand - tol)):
                        lower[block] = cand
                        got_l = True
            if not got_u:
                cand = np.minimum(upper[block], np.clip(est + delta, 0.0, hi))
                if float(np.max(upper[block] - cand)) > 0.0:
                    vec = upper.copy()
                    vec[block] = cand
                    budget.tick()
                    tol = 2.0 * _CHECK_RTOL * (1.0 + float(np.max(np.abs(cand))))
                    if bool(np.all(phi_check(vec) <= cand + tol)):
                        upper[block] = cand
                        got_u = True
            delta *= _SLACK_GROWTH
            if (got_l and got_u) or delta > gap:
                break


def solve_probability_interval(
    cm,
    *,
    zero: np.ndarray,
    one: np.ndarray,
    maximize: bool,
    epsilon: float,
    max_iterations: int,
    seed: np.ndarray | None = None,
) -> IntervalSolution:
    """Certified ``Pmax``/``Pmin`` bounds with prob0/prob1 pinning.

    ``zero``/``one`` are the qualitative masks (pinned exactly); ``seed``
    is an optional warm-start candidate for the contracting side (lower
    for ``Pmax``, upper for ``Pmin``).  The seed is *verified* with one
    Bellman application — accepted only when the (deflated, for ``Pmax``)
    operator moves it toward the fixpoint, which proves it bounds the true
    value from the right side — and silently dropped otherwise
    (``vi.warm.rejected``).
    """
    n = cm.num_states
    owners = cm.choice_state
    lower = np.zeros(n)
    upper = np.ones(n)
    lower[one] = 1.0
    upper[zero] = 0.0
    unknown = ~(zero | one)
    budget = _Budget(max_iterations, "value iteration did not converge")
    if not unknown.any():
        return IntervalSolution(lower, upper, budget.iterations, 0)

    T = _rows(cm)
    rows, cols = _entries(cm)
    choice_mask = unknown[owners]
    if maximize:
        mec_of_state, exit_mask, mec_count = _mec_info(
            n, rows, cols, owners, unknown, choice_mask
        )
    else:
        mec_of_state = exit_mask = None
        mec_count = 0

    def make_ops(idx, at):
        """The level's plain and checking operators over the choices
        ``idx``, each returning its values at the states ``at``."""
        block_T = T[idx]
        seg = _Segments.of(owners[idx], n)

        def plain(vec: np.ndarray) -> np.ndarray:
            return seg.opt(block_T @ vec, maximize)[at]

        def check(vec: np.ndarray) -> np.ndarray:
            q = block_T @ vec
            phi = seg.opt(q, maximize)
            if maximize and mec_count:
                _deflate(phi, q, idx, owners, mec_of_state,
                         exit_mask, mec_count)
            return phi[at]

        return plain, check

    if seed is not None:
        _, check_all = make_ops(np.flatnonzero(choice_mask), unknown)
        v = np.clip(seed - epsilon if maximize else seed + epsilon, 0.0, 1.0)
        v[one] = 1.0
        v[zero] = 0.0
        phi = check_all(v)
        budget.tick()
        tol = 2.0 * _CHECK_RTOL
        if maximize:
            ok = bool(np.all(phi >= v[unknown] - tol))
        else:
            ok = bool(np.all(phi <= v[unknown] + tol))
        if ok:
            if maximize:
                lower[unknown] = v[unknown]
            else:
                upper[unknown] = v[unknown]
        else:
            perf.incr("vi.warm.rejected")

    level_of_state, num_levels = _scc_levels(
        n, rows, cols, owners, unknown, choice_mask
    )
    targets = _level_targets(epsilon, num_levels)
    for level in range(num_levels):
        block = unknown & (level_of_state == level)
        states = np.flatnonzero(block)
        idx = np.flatnonzero(choice_mask & block[owners])
        plain, check = make_ops(idx, states)
        target = float(targets[level])
        if states.size <= _SPARSE_DIRECT_MAX:
            lvl = _SlotLayout.of(T, idx, owners[idx], states)
            x = _policy_fixpoint(
                lvl, lvl.matrix(T), lvl.padded(np.zeros(T.shape[0]),
                                               maximize),
                0.5 * (lower + upper), budget, maximize=maximize,
            )
            if x is not None:
                delta = target / 4.0
                tol = 2.0 * _CHECK_RTOL
                cl = np.maximum(np.clip(x - delta, 0.0, 1.0), lower[states])
                vec = lower.copy()
                vec[states] = cl
                budget.tick()
                if bool(np.all(check(vec) >= cl - tol)):
                    lower[states] = cl
                cu = np.minimum(np.clip(x + delta, 0.0, 1.0), upper[states])
                cu = np.maximum(cu, lower[states])
                vec = upper.copy()
                vec[states] = cu
                budget.tick()
                if bool(np.all(check(vec) <= cu + tol)):
                    upper[states] = cu
        _tighten(lower, upper, states, plain, check, budget,
                 target=target, hi=1.0)
    # Rounding can cross the bounds by strictly less than one ulp of the
    # sweep arithmetic; restore the invariant without moving either side
    # beyond certification noise.
    np.maximum(upper, lower, out=upper)
    return IntervalSolution(lower, upper, budget.iterations, num_levels)


def _solve_reward_level(
    lower: np.ndarray,
    upper: np.ndarray,
    level: _SlotLayout,
    P: sparse.csr_matrix,
    reward: np.ndarray,
    budget: _Budget,
    *,
    target: float,
    epsilon: float,
    minimize: bool,
    seed: np.ndarray | None,
) -> None:
    """Solve one condensation level of a total-reward objective in place.

    The reward solver (:func:`.compiled.solve_reach_avoid_reward`) runs it
    for every level, successors first, on one model's padded level matrix
    ``P`` (:meth:`_SlotLayout.matrix`) and padded choice rewards
    ``reward`` (:meth:`_SlotLayout.padded`).
    Every Bellman application, the direct solve's settling prelude and
    its policy iteration read that one matrix.

    A warm ``seed`` (relaxed down by ``epsilon``, floored at 0) replaces
    the level's lower iterate only when one Bellman application confirms
    it sits below the fixpoint; rejections cold-start and count as
    ``vi.warm.rejected``.

    Restricted to the usable choices (those staying in the prob-1 region)
    the sub-MDP is goal-reaching under proper policies; for minimization
    every policy in the restriction is proper, making the fixpoint unique
    so the OVI acceptance check (``Phi(u) <= u`` pointwise) certifies the
    upper bound.  For maximization an end component inside the restriction
    makes the supremum infinite; there the guesses never verify and the
    iteration budget surfaces the divergence as :class:`NonConvergence`.
    """
    maximize = not minimize
    block = level.states
    cols = level.cols

    def phi_of(vec: np.ndarray) -> np.ndarray:
        """One Bellman application, valued at the level's states."""
        return level.opt(reward + P @ vec[cols], maximize)

    def sweep_lower() -> np.ndarray:
        """One monotone lower sweep; returns the per-state change."""
        new = np.maximum(lower[block], phi_of(lower))
        d = new - lower[block]
        lower[block] = new
        return d

    if seed is not None:
        v = lower.copy()
        v[block] = np.maximum(seed[block] - epsilon, 0.0)
        phi = phi_of(v)
        budget.tick()
        tol = _CHECK_RTOL * (1.0 + float(np.max(v[block])))
        if bool(np.all(phi >= v[block] - tol)):
            lower[block] = v[block]
        else:
            perf.incr("vi.warm.rejected")

    # Direct solve: exact policy iteration, both bounds certified from
    # the machine-precision value in two Bellman applications.  Only for
    # minimization, where every policy of the usable restriction
    # that PI stabilizes on is proper; the verification gate below
    # keeps an improper intermediate from ever leaking out.
    if minimize and block.size <= _SPARSE_DIRECT_MAX:
        vals = lower.copy()
        certified = np.isfinite(upper)
        vals[certified] = 0.5 * (lower[certified] + upper[certified])
        x = _policy_fixpoint(level, P, reward, vals, budget, maximize=False)
        if x is not None:
            delta = target / 4.0
            cl = np.maximum(lower[block], x - delta)
            vec = lower.copy()
            vec[block] = cl
            budget.tick()
            tol = _CHECK_RTOL * (1.0 + float(np.max(cl)))
            if bool(np.all(phi_of(vec) >= cl - tol)):
                lower[block] = cl
                cu = np.maximum(cl, x + delta)
                vec = upper.copy()
                vec[block] = cu
                budget.tick()
                tol = _CHECK_RTOL * (1.0 + float(np.max(cu)))
                if bool(np.all(phi_of(vec) <= cu + tol)):
                    upper[block] = cu
                    np.maximum(upper, lower, out=upper)
                    return

    # Phase A: converge the lower iterate, with verified Aitken jumps
    # for slowly mixing components.  The stop is *error*-based, not
    # residual-based: sweeping continues past the residual floor until
    # the windowed geometric estimate of the remaining distance drops
    # to the OVI offset Phase B will guess — so the verified upper
    # lands within the level target and Phase C has nothing left to
    # grind.  A stall valve bounds the extra sweeps in case the rate
    # estimate refuses to certify progress (Phase C then takes over,
    # exactly as before).
    delta = np.inf
    prev_delta = np.inf
    d = prev_d = None
    sweeps = 0
    mark = 0
    delta_mark = np.inf
    hist: list[float] = []
    stalled = 0
    resid_floor = max(target / 4.0, 1e-300)
    while True:
        budget.tick()
        sweeps += 1
        prev_delta = delta
        prev_d = d
        d = sweep_lower()
        delta = float(np.max(d))
        if delta == 0.0:
            break
        hist.append(delta)
        if delta <= resid_floor:
            w = min(len(hist) - 1, 8)
            err = _window_error(delta, delta, hist[-1 - w], w) if w else 0.0
            stalled += 1
            if err <= target / 2.0 or stalled > 4 * _EXTRAP_EVERY:
                break
        if sweeps - mark < _EXTRAP_EVERY or prev_d is None:
            continue
        window = sweeps - mark
        mark = sweeps
        delta_then, delta_mark = delta_mark, delta
        guess = _aitken(lower[block], d, prev_d, toward_upper=True)
        if guess is None:
            continue
        est = np.maximum(guess, lower[block])
        resid = np.inf
        for _ in range(_SMOOTH_SWEEPS):
            budget.tick()
            vec = lower.copy()
            vec[block] = est
            new_est = np.maximum(phi_of(vec), lower[block])
            resid = float(np.max(np.abs(new_est - est)))
            est = new_est
        err = _window_error(resid, delta, delta_then, window)
        reach = float(np.max(est - lower[block]))
        slack = max(target / 4.0, min(err, reach / 4.0))
        for _ in range(2):
            cand = np.maximum(lower[block], est - slack)
            if float(np.max(cand - lower[block])) <= 0.0:
                break
            vec = lower.copy()
            vec[block] = cand
            phi = phi_of(vec)
            budget.tick()
            tol = _CHECK_RTOL * (1.0 + float(np.max(cand)))
            if bool(np.all(phi >= cand - tol)):
                lower[block] = cand
                break
            slack *= _SLACK_GROWTH
    if delta > 0.0:
        w = min(len(hist) - 1, 8)
        error_estimate = (
            _window_error(delta, delta, hist[-1 - w], w) if w else 0.0
        )
        if not np.isfinite(error_estimate):
            rho = min(
                max(delta / prev_delta if prev_delta > 0 else 0.0, 0.0),
                0.999999,
            )
            error_estimate = delta * rho / (1.0 - rho)
    else:
        error_estimate = 0.0

    # Phase B: optimistic upper guess + verification.
    offset = max(min(error_estimate, 1e12), target / 2.0)
    accepted = False
    while not accepted:
        upper[block] = lower[block] + offset
        for _ in range(_OVI_VERIFY_SWEEPS):
            budget.tick()
            pu = phi_of(upper)
            tol = _CHECK_RTOL * (1.0 + float(np.max(upper[block])))
            if bool(np.all(pu <= upper[block] + tol)):
                accepted = True
                upper[block] = np.minimum(upper[block], pu)
                break
            upper[block] = np.minimum(upper[block], pu)
            sweep_lower()
            if bool(np.any(upper[block] < lower[block] - tol)):
                break  # guess collapsed below the lower bound
        if not accepted:
            offset *= _OVI_GROWTH

    # Phase C: tighten jointly (with acceleration) to the level target.
    _tighten(lower, upper, block, phi_of, phi_of, budget,
             target=target, hi=np.inf)
    np.maximum(upper, lower, out=upper)
