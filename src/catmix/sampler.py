"""
Collapsed Gibbs sampler for the mixture of product multinomials.

Each sweep visits the rows in order.  A row is first detached from its
component (empty components disappear immediately); it is then
reassigned, choosing an existing component ``h`` with probability
proportional to

    n_h * prod_j psi[h, j, x_ij]

where ``n_h`` counts the other rows in ``h``, or a brand new component
with probability proportional to

    alpha * prod_j beta / sum_c beta = alpha * prod_j 1 / (d_j + 1).

The second product is the exact marginal likelihood of a single row
under a fresh flat Dirichlet draw; it does not depend on the row, so
the chain computes it once.  A newly opened component receives its
category probabilities right away, drawn from the Dirichlet posterior
given its one member, so that later rows in the same sweep see it on
equal footing.  After the reassignment pass the components are sorted
by occupancy (largest first, ties kept in previous order), and every
psi is redrawn from its Dirichlet posterior given the current
membership.  That redraw is the psi a sweep reports; during a sweep
the chain keeps only the log of each component's psi.

A birth or a death costs O(k) bookkeeping (a birth also draws its own
psi): components live in slots of buffers that only grow, an emptied
component frees its slot and a new one takes a free slot, and no other
component's probabilities are copied.  So the first sweep from one
component per row, which sees about n deaths, costs what any sweep
costs, the row likelihoods, O(k p) per row.

Psi and its log cover only the codes each variable really has,
sum_j (d_j + 1) of them, laid flat as in :class:`ModelState`, not the
p (D + 1) codes of a table padded to the widest variable; one 100-level
column among 2- to 5-level ones would otherwise make nine entries in
ten padding.  Every Dirichlet draw is one ``standard_gamma`` over the
flat concentrations, normalised by :func:`~catmix.core.segment_sums`.
Starting from one component per row, the log table takes
O(n sum_j (d_j + 1)) floats.  Every batch of Dirichlet draws, the prior
draw of the initial components and the redraw after each sweep alike,
is made at most ``_BLOCK_FLOATS`` floats (256 KiB), or one component, at
a time, so a draw's scratch never grows with the table.

Where it can, a sweep settles rows in blocks instead of one at a time,
with unchanged draws.  A row that stays in its component changes no
count and no live order, so every row up to the first one that moves
sees exactly the state at the start of its block, minus itself.  The
sweep therefore settles a block of rows in one array pass: it computes
the block's (rows, k + 1) weights with the same elementwise operations
and summation order as one row's (they are one kernel), draws the
block's uniforms with one ``rng.random(rows)`` and picks every row's
index at once.  The cells' flat positions are stored variables
outermost, (p, n), so numpy sums a block's (p, rows, slots) gather of
log psi one contiguous plane per variable: in one row's order, but in
long inner loops.  At one slot it would sum a row pairwise, so the
chain keeps at least two slots.
It accepts every row before the first one that moves
(to another component or a new one), sets the bit generator's state
back, replays exactly the uniforms a row-by-row sweep would have drawn
up to and including the mover's, and commits the mover, birth draws
and all.  Every float, every uniform and the order of every draw are
those of the row-by-row sweep, so the draws are bit-identical to it.
A singleton's departure changes the live order, so singletons end a
block and go row by row.  A block pass costs a few single-row visits,
so it pays only where most rows stay: the chain counts the rows that
moved in a sweep, and the next sweep's blocks span twice the mean run
between two movers, 2 n / (movers + 1) rows, once that reaches
``_BLOCK_MIN``.  Otherwise rows go row by row, each visit paying its
fixed numpy call overhead, about 9 us on a 2-vCPU x86-64 host; a mover
costs the block up to it, a state reset and a replay.  So a steady
chain at small k settles most rows in blocks.  The first sweep from
one component per row, all singletons, runs row by row, and so does a
sweep after one in which about a third of the rows or more moved.

Missing cells simply carry the code 0 and participate in the products
above like any other category; no special casing happens inside the
sampler.  The division by the missing mass is deferred to
:func:`collapse_state`, which one loop applies to each retained state:
:func:`run_gibbs` collects the draws, and ``catmix fit`` writes each one
to its model file as the loop keeps it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from catmix.core import (
    CollapsedModel,
    Dataset,
    ModelState,
    _BLOCK_FLOATS,
    _check_count,
    rescale_missing,
    segment_sums,
)

__all__ = [
    "GibbsConfig",
    "collapse_state",
    "iterate_states",
    "k_histogram",
    "modal_k",
    "run_gibbs",
]

# Accepted ``beta`` range.  A Dirichlet draw sums gammas of shape about
# beta over a variable's codes, which overflows near 1e308; far below
# 0.01 every observable gamma of a vector can underflow to 0 together.
_BETA_MIN = 0.01
_BETA_MAX = 1e300

# Block passes (see _Chain.sweep).  A block spans _GROW times the
# previous sweep's mean run of rows between two movers, and is tried
# only when that reaches _BLOCK_MIN rows: a pass costs a few single-row
# visits.  Its (p, rows, slots) gather of log psi holds at most
# _BLOCK_FLOATS floats, which also bounds the work a block wastes on the
# rows after its first mover.  Every batch of psi draws is made at most
# _BLOCK_FLOATS floats (or one component) at a time.
_BLOCK_MIN = 6
_GROW = 2


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length and priors of a fit; the seed is passed separately.

    Attributes
    ----------
    burnin : int
        Sweeps discarded from the start of the chain.
    samples : int
        Number of retained posterior draws.
    thin : int
        Keep one state every ``thin`` sweeps after burn-in.
    alpha : float
        Concentration of the partition prior.
    beta : float
        Flat Dirichlet pseudo-count of every code of every variable,
        the missing code included; from 0.01 to 1e300.
    """

    burnin: int = 200
    samples: int = 100
    thin: int = 2
    alpha: float = 0.25
    beta: float = 1.0

    def __post_init__(self):
        for name, least in (("burnin", 0), ("samples", 1), ("thin", 1)):
            _check_count(name, getattr(self, name), least)
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.beta > _BETA_MAX:
            raise ValueError(
                f"beta must be at most {_BETA_MAX:g}, got {self.beta:g}")
        if self.beta < _BETA_MIN:
            raise ValueError(
                f"beta must be at least {_BETA_MIN:g}, got {self.beta:g}")

    @property
    def total_sweeps(self) -> int:
        return self.burnin + self.samples * self.thin

    def retained(self, sweep: int) -> bool:
        """Whether the state after 1-based ``sweep`` is kept as a draw."""
        return sweep > self.burnin and (sweep - self.burnin) % self.thin == 0


def k_histogram(ks) -> dict[int, int]:
    """Map from component count to how many of ``ks`` have it."""
    values, freq = np.unique(ks, return_counts=True)
    return {int(a): int(b) for a, b in zip(values, freq)}


def modal_k(ks) -> int:
    """Most frequent component count in ``ks``; ties go to the smaller."""
    hist = k_histogram(ks)
    return min(hist, key=lambda k: (-hist[k], k))


# ---------------------------------------------------------------------------
# Internal mutable chain
# ---------------------------------------------------------------------------
#
# Inside the chain ``z`` holds each row's slot, ``order`` lists the live
# slots in component order and ``free`` the empty ones; ``labels`` maps
# slots back to component labels.

class _Chain:
    __slots__ = (
        "n", "p", "schema", "offsets", "var", "beta", "new_logw",
        "z", "counts", "log_psi", "order", "free", "movers",
    )

    def __init__(self, data: Dataset, config: GibbsConfig):
        if data.n_rows == 0:
            raise ValueError("cannot run the sampler on an empty dataset")
        self.n, self.p = data.cells.shape
        self.schema = data.schema
        starts = data.schema.offsets(1)
        # offsets[j, i]: position of cell (i, j) in the flat layout
        self.offsets = np.ascontiguousarray((starts[:-1] + data.cells).T)
        # var[c]: the variable of flat code c
        self.var = np.repeat(np.arange(self.p), data.schema.codes_array() + 1)
        self.beta = np.full(starts[-1], config.beta, dtype=np.float64)
        # log weight of opening a new component; flat priors give every
        # code the same log(beta / sum_c beta), so code 0 stands for x_ij
        self.new_logw = np.log(config.alpha) + (np.log(config.beta) - np.log(
            segment_sums(self.beta, self.schema, 1))).sum()
        # as if every row had moved: the first sweep goes row by row
        self.movers = self.n

    @property
    def k(self) -> int:
        """Number of live components."""
        return self.order.size

    # -- state transfer ----------------------------------------------------

    def _adopt(self, z: np.ndarray, counts: np.ndarray) -> None:
        """Take components in label order, slot ``h`` holding component
        ``h``, with room for their log psi in at least two slots."""
        k = counts.size
        # a spare slot at k = 1, so that rows and blocks sum alike
        cap = max(k, 2)
        self.z = z
        self.counts = np.zeros(cap, dtype=np.int64)
        self.counts[:k] = counts
        # log psi is kept transposed, shape (codes, slots), so that a
        # row's terms for every slot are one row gather
        self.log_psi = np.zeros((self.beta.size, cap))
        self.order = np.arange(k)
        self.free = list(range(cap - 1, k - 1, -1))

    def _draw(self, counts: np.ndarray, start: int,
              rng: np.random.Generator, psi: np.ndarray | None = None) -> None:
        """Draw the psi of the slots from ``start`` on, one per row of the
        flat integer ``counts``, from the Dirichlet posteriors with
        concentrations ``counts + beta``, and keep its log.  The draw is
        made at most ``_BLOCK_FLOATS`` floats, or one slot, at a time, each
        batch into the rows of ``psi`` when that is given."""
        step = max(1, _BLOCK_FLOATS // self.beta.size)
        for lo in range(0, len(counts), step):
            hi = min(lo + step, len(counts))
            batch = rng.standard_gamma(
                counts[lo:hi] + self.beta,
                out=None if psi is None else psi[lo:hi])
            batch /= segment_sums(batch, self.schema, 1).take(self.var, axis=1)
            with np.errstate(divide="ignore"):
                np.log(batch.T, out=self.log_psi[:, start + lo:start + hi])

    def labels(self) -> tuple[np.ndarray, np.ndarray]:
        """New arrays of each row's component label and the counts in label
        order: live components by descending occupancy, ties in live order."""
        live = self.order[np.argsort(-self.counts[self.order], kind="stable")]
        rank = np.empty(self.counts.size, dtype=np.int64)
        rank[live] = np.arange(self.k)
        return rank[self.z], self.counts[live]

    # -- kernels -----------------------------------------------------------

    def init(self, rng: np.random.Generator) -> None:
        """Every row in its own component, log psi from a prior draw."""
        self._adopt(np.arange(self.n), np.ones(self.n, dtype=np.int64))
        self._draw(np.broadcast_to(0, (self.n, self.beta.size)), 0, rng)

    def detach(self, i: int) -> None:
        """Remove row i from its component, dropping it if now empty."""
        s = self.z[i]
        self.counts[s] -= 1
        self.z[i] = -1
        if self.counts[s] == 0:
            self.order = self.order[self.order != s]
            self.free.append(s)

    def row_weights(self, rows) -> np.ndarray:
        """Normalized reassignment probabilities of ``rows``.

        ``rows`` is either one detached row or a slice of rows that each
        sit in a component of at least two; the result has shape
        ``(k + 1,)`` or ``(rows, k + 1)``.  An attached row is counted
        out of its own component, so it gets exactly the weights it
        would get detached.  Entry ``h < k`` targets the ``h``-th live
        component; the last entry opens a new component.
        """
        # every slot's log likelihood, summed over the variables in order;
        # free slots keep finite or -inf logs and are dropped here
        loglik = self.log_psi.take(self.offsets[:, rows], axis=0).sum(axis=0)
        counts = self.counts[self.order]
        if loglik.ndim == 2:
            # attached rows leave their own component; a detached row
            # has none to leave
            counts = counts - (self.z[rows, None] == self.order)
        logw = np.empty(loglik.shape[:-1] + (self.k + 1,))
        np.add(np.log(counts), loglik.take(self.order, axis=-1),
               out=logw[..., :-1])
        logw[..., -1] = self.new_logw
        logw -= logw.max(axis=-1, keepdims=True)
        np.exp(logw, out=logw)
        logw /= logw.sum(axis=-1, keepdims=True)
        return logw

    def pick(self, rows, u):
        """Index into :meth:`row_weights` that uniform(s) ``u`` draw for
        ``rows``: a live component's position, or ``k`` for a new one."""
        edges = np.cumsum(self.row_weights(rows), axis=-1)
        if edges.ndim == 1:
            return min(int(np.searchsorted(edges, u * edges[-1], "right")),
                       self.k)
        # searchsorted(..., "right") row by row: the edges at or below
        below = edges <= (u * edges[:, -1])[:, None]
        return np.minimum(below.sum(axis=1), self.k)

    def commit(self, i: int, h: int, rng: np.random.Generator) -> None:
        """Attach detached row i to live component h (== k opens one)."""
        if h < self.k:
            s = self.order[h]
            self.z[i] = s
            self.counts[s] += 1
            return
        member = np.zeros((1, self.beta.size), dtype=np.int64)
        member[0, self.offsets[:, i]] = 1
        s = self._free_slot()
        self._draw(member, s, rng)
        self.counts[s] = 1
        self.order = np.append(self.order, s)
        self.z[i] = s

    def _free_slot(self) -> int:
        """A slot for a new component, doubling the buffers when full."""
        if not self.free:
            cap = self.counts.size
            counts = np.zeros(2 * cap, dtype=np.int64)
            # zeros, so that free slots never feed NaN into the row sums
            log_psi = np.zeros((self.log_psi.shape[0], 2 * cap))
            counts[:cap], log_psi[:, :cap] = self.counts, self.log_psi
            self.counts, self.log_psi = counts, log_psi
            self.free = list(range(2 * cap - 1, cap - 1, -1))
        return self.free.pop()

    def reassign(self, i: int, rng: np.random.Generator) -> bool:
        """Visit row i alone; returns whether it changed slot."""
        s = self.z[i]
        self.detach(i)
        self.commit(i, self.pick(i, rng.random()), rng)
        return bool(self.z[i] != s)

    def redraw_psi(self, z: np.ndarray, counts: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """Adopt the labelled partition ``(z, counts)``, draw every
        component's psi from its Dirichlet posterior given the members
        and return it in label order."""
        # release the slot buffer before the draw allocates a new one
        self.log_psi = None
        k, size = counts.size, self.beta.size
        members = np.bincount((z * size + self.offsets).ravel(),
                              minlength=k * size).reshape(k, size)
        self._adopt(z, counts)
        psi = np.empty((k, size))
        self._draw(members, 0, rng, psi)
        return psi

    def settle(self, start: int, stop: int,
               rng: np.random.Generator) -> int:
        """Visit rows ``start .. stop - 1`` in one pass, up to and
        including the first row that leaves its component; returns how
        many rows stayed.

        Every row must sit in a component with at least two members.
        Until a row moves no count changes, so each row up to the first
        mover sees the state at ``start`` minus itself, exactly as a
        row-by-row visit would.  The mover, if any, is committed here;
        the generator is left where those visits leave it.
        """
        rows = slice(start, stop)
        saved = rng.bit_generator.state
        h = self.pick(rows, rng.random(stop - start))
        rank = np.empty(self.counts.size, dtype=np.int64)
        rank[self.order] = np.arange(self.k)
        moved = h != rank[self.z[rows]]
        if not moved.any():
            return stop - start
        stayed = int(moved.argmax())
        # replay the uniforms up to the mover's; a birth draws after it
        rng.bit_generator.state = saved
        rng.random(stayed + 1)
        self.detach(start + stayed)
        self.commit(start + stayed, int(h[stayed]), rng)
        return stayed

    def sweep(self, rng: np.random.Generator):
        """The row pass, one relabel, the psi redraw; returns the labelled
        partition ``(z, counts)`` now adopted, ``z`` the chain's own, and
        that psi.

        ``movers`` counts the rows that left their slot in the last
        sweep (``n`` before the first), and ``n / (movers + 1)`` is that
        sweep's mean run between two movers.  Blocks span ``_GROW``
        times that run; from ``_BLOCK_MIN`` rows on, rows go to
        :meth:`settle` in such blocks, each ending before the first
        singleton, and all other rows take the row-by-row path.
        """
        span = _GROW * self.n // (self.movers + 1)
        self.movers = 0
        i = 0
        while i < self.n:
            stop = i
            if span >= _BLOCK_MIN:
                stop += min(span, self.n - i,
                            _BLOCK_FLOATS // (self.p * self.counts.size))
                single = self.counts[self.z[i:stop]] == 1
                if single.any():
                    stop = i + int(single.argmax())
            if stop - i >= _BLOCK_MIN:
                stayed = self.settle(i, stop, rng)
                moved = i + stayed < stop
            else:
                moved = self.reassign(i, rng)
                stayed = int(not moved)
            self.movers += moved
            i += stayed + moved
        z, counts = self.labels()
        return z, counts, self.redraw_psi(z, counts, rng)


def collapse_state(state: ModelState) -> CollapsedModel:
    """Rescale a chain state into a mixture over observable codes.

    Component weights are the occupancy fractions ``n_h / n``.  Within
    each component the missing mass is divided out of every variable's
    segment ``psi_hj`` of the flat ``psi[h]``: the model's code ``c`` of
    variable ``j`` gets ``psi_hj[c] / sum_{c' >= 1} psi_hj[c']``.

    Parameters
    ----------
    state : ModelState

    Raises
    ------
    ValueError
        If some component puts all of its mass for a variable on the
        missing code, leaving nothing to rescale (see
        :func:`~catmix.core.rescale_missing`).
    """
    theta = state.counts / state.counts.sum()
    return CollapsedModel(state.schema, theta,
                          rescale_missing(state.psi, state.schema))


def iterate_states(data: Dataset, config: GibbsConfig = GibbsConfig(),
                   seed=None) -> Iterator[ModelState]:
    """Run ``config.total_sweeps`` sweeps, yielding every sweep's state.

    This is the raw loop underneath :func:`run_gibbs`; it is useful
    when per-sweep quantities such as the partition itself are wanted.
    It prints nothing, and ``itertools.islice`` stops it early.

    Parameters
    ----------
    data : Dataset
    config : GibbsConfig, optional
        Schedule and priors.
    seed : int, SeedSequence or Generator, optional

    Yields
    ------
    ModelState
        An independent snapshot after each sweep.
    """
    rng = np.random.default_rng(seed)
    ch = _Chain(data, config)
    ch.init(rng)
    for _ in range(config.total_sweeps):
        z, counts, psi = ch.sweep(rng)
        # a copy, as the chain keeps moving its rows in ``z``
        yield ModelState(data.schema, z.copy(), counts, psi)


def _retained(data: Dataset, config: GibbsConfig, seed=None,
              every: int = 0) -> Iterator[CollapsedModel]:
    """Yield each retained sweep's state, collapsed, the last sweep among
    them; unless ``every`` is 0, print ``sweep <t>/<T> k=<k>`` to
    standard error every ``every`` sweeps and after the last one."""
    sweeps = config.total_sweeps
    states = iterate_states(data, config, seed)
    for t, state in enumerate(states, start=1):
        if every and (t % every == 0 or t == sweeps):
            print(f"sweep {t}/{sweeps} k={state.k}", file=sys.stderr)
        if config.retained(t):
            yield collapse_state(state)


def run_gibbs(data: Dataset, config: GibbsConfig = GibbsConfig(),
              seed=None) -> tuple[CollapsedModel, ...]:
    """Fit the mixture by collapsed Gibbs sampling.

    Runs ``burnin + samples * thin`` sweeps and keeps every ``thin``-th
    state after burn-in, already rescaled to observable codes.  The
    posterior over k is read off the draws by :func:`k_histogram` and
    :func:`modal_k`; the chain's last state is the last one
    :func:`iterate_states` yields.

    Parameters
    ----------
    data : Dataset
    config : GibbsConfig, optional
        Schedule and priors.
    seed : int, SeedSequence or Generator, optional

    Returns
    -------
    tuple of CollapsedModel
        The retained draws, in chain order.
    """
    return tuple(_retained(data, config, seed))
