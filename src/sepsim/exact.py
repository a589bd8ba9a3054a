"""Exact engine: rate generator, numerical stationary solve, closed forms.

The generator of the lattice process is stored as off-diagonal COO arrays
in a canonical (row, col) order; the diagonal is implied (negative exit
rate), so row sums are zero by construction.  Every generator comes from
:func:`build_generator`, which adds each event family next to its reverse
family, so it knows each edge's reverse without a search, and puts the
edges in order with one stable sort of a single integer key; the
generator keeps the reverse of each edge (:attr:`Generator.reverse`).  A
copy changes only the rates (the negative control's perturbed generator,
the time-reversed one) and shares the rest.  So a generator is
irreducible exactly when its model is (:func:`is_irreducible_model`), and
it is spanned by that lemma's tree.  A model is solved one of two ways,
chosen by one rule on the generator itself:

- reversible generators (rate ratios that close every cycle,
  Kolmogorov's criterion) take their stationary law straight from Kelly's
  spanning-tree potential of those ratios along the lemma's tree, which
  is computed once per generator (:attr:`Generator.tree_potential`), in
  numpy alone, and shared with the cycle check of
  :mod:`sepsim.reversibility`;
- every other generator pins the weight of its last state to one and
  factors the remaining balance equations by a sparse LU without
  pivoting, which is stable because the reduced system is a column
  diagonally dominant M-matrix, and one step of iterative refinement with
  the same factors, on a residual accumulated in extended precision, gives
  the small probabilities a small relative error too.

Both routes end in the same global-balance gate and positivity check.

scipy is imported only by the LU, on first use, so importing this module,
and solving or checking a model's own generator, loads numpy alone; only
a non-reversible generator, such as the negative control's perturbed
copy, loads it.

A claimed stationary law can also be certified without a solve and
without a generator (:func:`certify_stationary`): its global-balance
residual is taken under the model's own rates on the ``(K+1,)*N``
probability tensor, and irreducibility follows from a lemma on the rates
(:func:`is_irreducible_model`), so a vanishing residual proves the law is
the unique stationary one.

The closed-form product distribution and its site marginals are computed
independently of the solver, so either side can serve as the oracle for
the other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .model import ModelParams, state_space_size

__all__ = [
    "DEFAULT_STATE_CAP",
    "STATE_CAP_ENV",
    "EDGE_ARRIVAL",
    "EDGE_DEPARTURE",
    "EDGE_HOP",
    "EDGE_CLASS_NAMES",
    "CapExceededError",
    "SolveError",
    "SingularSystemError",
    "Generator",
    "TreePotential",
    "resolve_state_cap",
    "build_generator",
    "reverse_rates",
    "balance_residuals",
    "is_irreducible_model",
    "certify_stationary",
    "solve_stationary",
    "product_form",
    "normalization_constant",
    "site_marginal",
    "marginals_from_distribution",
]

DEFAULT_STATE_CAP = 1 << 24
STATE_CAP_ENV = "SEPSIM_STATE_CAP"
# Caps must stay below it, so that build_generator's sort key
# rows * dim + cols fits in int64 and a state index in int32.
_CAP_BOUND = 1 << 31
RESIDUAL_TOL = 1e-10
# Largest cycle mismatch for which the stationary law is read off the tree
# potential.  Reversible generators built here stay below 1e-14; a broken
# rate symmetry shows at the size of the break.
_REVERSIBLE_TOL = 1e-12

# Transition classes: an edge adds a particle, removes one, or moves one.
EDGE_ARRIVAL, EDGE_DEPARTURE, EDGE_HOP = 1, 2, 3
EDGE_CLASS_NAMES = {EDGE_ARRIVAL: "arrival", EDGE_DEPARTURE: "departure", EDGE_HOP: "hop"}


class CapExceededError(RuntimeError):
    """The state space is larger than the configured exact-engine cap."""

    def __init__(self, requested: int, cap: int):
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"state space has {requested} states, exceeding the exact-engine cap of {cap}; "
            f"set {STATE_CAP_ENV} to raise the cap"
        )


class SolveError(RuntimeError):
    """The stationary solve failed."""


class SingularSystemError(SolveError):
    """The balance system is singular or too ill-conditioned to trust."""


def resolve_state_cap() -> int:
    """Effective exact-engine state cap: the ``SEPSIM_STATE_CAP``
    environment variable, else the built-in default.  A cap of 2**31 or
    more is refused, because state counts that large overflow the keys and
    tables that index the edges."""
    raw = os.environ.get(STATE_CAP_ENV)
    if raw is None:
        return DEFAULT_STATE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{STATE_CAP_ENV} must be an integer >= 1, got {raw!r}")
    if cap >= _CAP_BOUND:
        raise ValueError(f"{STATE_CAP_ENV} must be below 2**31, got {raw!r}")
    return cap


class TreePotential(NamedTuple):
    """Kelly's spanning-tree potential of a generator.

    With ``L_ij = log(rate(i->j) / rate(j->i))`` on each edge, ``phi``
    satisfies ``phi_j = phi_i + L_ij`` along a spanning tree of the
    support and is zero at its root.  ``mismatch`` is
    ``max |expm1(L_ij - (phi_j - phi_i))|`` over every edge: the worst
    relative mismatch of forward and reverse rate products over the
    fundamental cycles, which span all cycles, so it vanishes up to
    rounding exactly when the chain is reversible (Kelly, Reversibility and
    Stochastic Networks, 1979, section 1.5).  Then ``exp(phi)`` is the
    stationary law up to a constant.
    """

    phi: np.ndarray
    mismatch: float


@dataclass(frozen=True, eq=False)
class Generator:
    """Off-diagonal transition rates of the lattice process.

    ``rows``, ``cols``, ``rates`` and ``kinds`` are parallel arrays holding
    one directed edge each, sorted by (row, col).  The diagonal entry of
    state ``i`` is implied as minus its exit rate, so every row of the full
    matrix sums to zero exactly.  ``reverse[e]`` is the index of the edge
    ``cols[e] -> rows[e]``.  The arrays are read-only.

    The support fields, ``dim``, ``rows``, ``cols``, ``kinds``, ``reverse``
    and ``params`` (the model), are :func:`build_generator`'s.  A changed
    copy, made with ``dataclasses.replace(gen, rates=...)``, changes only
    the rates and shares the other arrays; perturbed copies keep ``params``
    for state decoding and for the spanning tree even though their rates
    no longer follow the model.  So only the rates are checked here: one
    per edge, each positive and finite.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    kinds: np.ndarray
    params: ModelParams
    reverse: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64)
        if rates.shape != self.rows.shape:
            raise ValueError(f"rates must have the edges' shape {self.rows.shape}, got {rates.shape}")
        if np.any(rates <= 0.0) or not np.all(np.isfinite(rates)):
            raise ValueError("stored rates must be positive and finite")
        if rates is self.rates and rates.flags.writeable:
            rates = rates.copy()  # the caller's own array stays theirs
        # Read-only, so the memoised tree potential cannot go stale.
        rates.flags.writeable = False
        object.__setattr__(self, "rates", rates)

    @property
    def n_edges(self) -> int:
        return int(self.rates.size)

    def exit_rates(self) -> np.ndarray:
        """Total rate out of each state (magnitude of the implied diagonal)."""
        return np.bincount(self.rows, weights=self.rates, minlength=self.dim)

    @cached_property
    def tree_potential(self) -> TreePotential:
        """The :class:`TreePotential` of these rates along the tree of
        :func:`_lemma_potential`, computed on first use and kept.  Raises
        :class:`ValueError` when the model is reducible, so that no tree
        spans its states.

        The tree depends on the support only, so the mismatch is taken over
        every edge whatever the rates: a perturbed copy still shows its
        break.  Copies made with :func:`dataclasses.replace` are new
        instances, so a perturbed or reversed generator computes its own.
        """
        # In place where the result does not change, to hold fewer
        # edge-sized temporaries at once.
        log_ratio = np.log(self.rates)
        log_ratio -= np.log(reverse_rates(self))
        phi = _lemma_potential(self, log_ratio)
        mismatch = phi[self.cols]
        mismatch -= phi[self.rows]
        np.subtract(log_ratio, mismatch, out=mismatch)
        np.abs(np.expm1(mismatch, out=mismatch), out=mismatch)
        return TreePotential(phi, float(mismatch.max()))


def _follow(reverse: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``reverse`` after the edges are put in ``order``: for each edge in
    its new place, the new place of its reverse, through the inverse
    permutation."""
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return position[reverse[order]]


def _event_pairs(params: ModelParams) -> Iterator[tuple[tuple, tuple, float, int, float, int]]:
    """The model's event rules, each event family beside its reverse family.

    Each item is ``(a, b, rate_ab, kind_ab, rate_ba, kind_ba)``, where ``a``
    and ``b`` index the ``(K+1,)*N`` state tensor: the family's events take
    each state of ``a`` to the state in the same place of ``b`` at rate
    ``rate_ab``, and the reverse family takes it back at ``rate_ba``.  In
    the sampler's order (``sepsim.simulate.RNG_SCHEME["event_order"]``): a
    type-k arrival at a vacant site against its departure, for k = 1..K,
    on axis 0 and then on axis N-1; then, for each k whose hop rate
    ``delta[k-1]`` is positive, on each bond ``(i, i+1)`` in ascending
    ``i`` a type-k right hop, ``(k, 0) -> (0, k)``, against its left hop.
    """
    full = (slice(None),) * params.n_sites

    def at(axis: int, *values: int) -> tuple:
        """The states holding ``values`` on the axes from ``axis`` on."""
        return full[:axis] + values + full[axis + len(values):]

    for axis in (0, params.n_sites - 1):
        for k, (alpha, beta) in enumerate(zip(params.alpha, params.beta), 1):
            yield at(axis, 0), at(axis, k), alpha, EDGE_ARRIVAL, beta, EDGE_DEPARTURE
    for k, rate in enumerate(params.delta, 1):
        if rate > 0.0:
            for i in range(params.n_sites - 1):
                yield at(i, k, 0), at(i, 0, k), rate, EDGE_HOP, rate, EDGE_HOP


def build_generator(params: ModelParams) -> Generator:
    """Assemble the generator from the event rules, one edge per enabled event.

    Refuses models whose state count exceeds :func:`resolve_state_cap`.
    The construction is vectorised over the whole state space: each event
    family of :func:`_event_pairs` contributes one block of edges, and its
    reverse family the next block.  Both index the tensor of state indices
    ``arange(M).reshape((K+1,)*N)``, whose slices list their states in
    ascending order, so within a block the sources and the targets both
    ascend, and the reverse block's sources are the forward block's targets
    in the same order: edge ``t`` of one block is the reverse of edge ``t``
    of the other.  One stable sort of the key ``rows * dim + cols``, whose
    blocks are already sorted runs, puts the edges in (row, col) order, and
    the reverse indices follow it.
    """
    m = state_space_size(params)
    limit = resolve_state_cap()
    if m > limit:
        raise CapExceededError(m, limit)

    ids = np.arange(m, dtype=np.int64).reshape((params.n_types + 1,) * params.n_sites)
    # Each family's sources and targets, as views of ids.
    families = [(ids[a], ids[b], *rules) for a, b, *rules in _event_pairs(params)]
    n_edges = 2 * sum(src.size for src, *_ in families)
    rows = np.empty(n_edges, dtype=np.int64)
    cols = np.empty(n_edges, dtype=np.int64)
    rates = np.empty(n_edges)
    kinds = np.empty(n_edges, dtype=np.int8)
    reverse = np.empty(n_edges, dtype=np.int64)
    at = 0
    for src, dst, rate, kind, back_rate, back_kind in families:
        size = src.size
        fwd, back = slice(at, at + size), slice(at + size, at + 2 * size)
        rows[fwd] = cols[back] = src.ravel()
        cols[fwd] = rows[back] = dst.ravel()
        rates[fwd], kinds[fwd], rates[back], kinds[back] = rate, kind, back_rate, back_kind
        reverse[fwd] = np.arange(at + size, at + 2 * size)
        reverse[back] = np.arange(at, at + size)
        at += 2 * size
    del ids, families

    # Rebinding each array in turn frees its unsorted copy before the next
    # one is gathered.
    order = np.argsort(rows * m + cols, kind="stable")
    rows = rows[order]
    cols = cols[order]
    rates = rates[order]
    kinds = kinds[order]
    reverse = _follow(reverse, order)
    del order
    for array in (rows, cols, rates, kinds, reverse):
        array.flags.writeable = False  # so the generator keeps them without a copy
    return Generator(
        dim=m, rows=rows, cols=cols, rates=rates, kinds=kinds, params=params, reverse=reverse
    )


def reverse_rates(gen: Generator) -> np.ndarray:
    """Rate of the opposite-direction transition, aligned with each edge.

    Entry ``e`` holds the rate of ``cols[e] -> rows[e]``, read through
    :attr:`Generator.reverse`.
    """
    return gen.rates[gen.reverse]


def _lemma_potential(gen: Generator, log_ratio: np.ndarray) -> np.ndarray:
    """Potential with ``phi_j = phi_i + log_ratio[i->j]`` along the spanning
    tree of :func:`is_irreducible_model`'s proof, zero at its root, the
    empty lattice (index 0).  For a reversible chain it is
    ``log(stationary)`` up to a constant.  Raises :class:`ValueError` when
    the model is reducible.

    In a non-empty state take the leftmost particle, of type k at site i.
    On site 1 or site N its parent is the state without it, so the tree
    edge is an arrival; otherwise the parent has it one site to the left,
    where the site is vacant, and the edge is a type-k hop, which exists
    because the lemma gives ``delta_k > 0`` on more than two sites.  Site 1
    is the most significant digit, so the states whose leftmost particle
    sits on site i are one contiguous index block per site: no search.
    """
    params = gen.params
    if not is_irreducible_model(params):
        raise ValueError(_REDUCIBLE_MESSAGE)
    n, base = params.n_sites, params.n_types + 1
    state = np.arange(gen.dim, dtype=np.int64)
    parent = state.copy()
    for i in range(n):
        # Leading digit at site i + 1: the states [w, base * w).
        w = base ** (n - 1 - i)
        kind, rest = np.divmod(state[w:base * w], w)
        parent[w:base * w] = rest if i in (0, n - 1) else rest + kind * (base * w)
    # One pass over the edges finds the tree edge into each non-root state,
    # through an int32 table of its parent (the cap keeps dim below 2**31).
    wanted = np.full(gen.dim, -1, dtype=np.int32)
    wanted[1:] = parent[1:]
    edge = np.flatnonzero(wanted[gen.cols] == gen.rows)
    potential = np.zeros(gen.dim)
    potential[gen.cols[edge]] = log_ratio[edge]
    # Pointer doubling: potential[v] sums the log ratios from up[v] down
    # to v, and up[v] climbs until it reaches the root.
    up = parent
    while np.any(up[up] != up):
        potential = potential + potential[up]
        up = up[up]
    return potential


def balance_residuals(gen: Generator, dist: np.ndarray) -> np.ndarray:
    """Global-balance residual per state: outflow minus inflow under ``dist``.

    Exit rates, flows and their differences are accumulated in
    ``np.longdouble`` (80-bit extended on x86-64; where the platform has no
    wider type it is a plain double) from the stored rates, so the
    cancellation between a state's outflow and inflow loses little, and
    the result is rounded to float64 once at the end.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (gen.dim,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({gen.dim},)")
    rates = gen.rates.astype(np.longdouble)
    exit_rates = np.zeros(gen.dim, dtype=np.longdouble)
    np.add.at(exit_rates, gen.rows, rates)
    residual = dist.astype(np.longdouble) * exit_rates
    rates *= dist[gen.rows]  # the flow along each edge, in place
    np.subtract.at(residual, gen.cols, rates)
    return residual.astype(np.float64)


_REDUCIBLE_MESSAGE = (
    "generator must be irreducible; note that a zero hop rate freezes "
    "interior occupancy of that type on lattices with more than two sites"
)


def _tensor(dist: np.ndarray, params: ModelParams) -> np.ndarray:
    """``dist`` as the ``(K+1,)*N`` probability tensor: axis i holds site
    i+1's value, as in the canonical encoding."""
    dist = np.asarray(dist, dtype=np.float64)
    m = state_space_size(params)
    if dist.shape != (m,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({m},)")
    return dist.reshape((params.n_types + 1,) * params.n_sites)


def is_irreducible_model(params: ModelParams) -> bool:
    """True when the model's chain is irreducible, by a lemma on the rates
    rather than a graph search: iff ``n_sites <= 2`` or every ``delta_k > 0``.

    If every hop rate is positive, the leftmost particle can hop to site 1
    and leave, so every state reaches the empty lattice; from the empty
    lattice, filling the sites from right to left (arrive at site 1, hop
    right) reaches every state.  On two sites every site is a boundary
    site, so arrivals and departures alone do both.  Conversely,
    on more than two sites a type with ``delta_k = 0`` can never enter an
    interior site, so the states holding it there are not reachable from
    the empty lattice.
    """
    return params.n_sites <= 2 or min(params.delta) > 0.0


def certify_stationary(params: ModelParams, dist: np.ndarray) -> float:
    """Largest global-balance residual (outflow minus inflow) of ``dist``
    under the model's own dynamics, in rate × probability units.

    An irreducible chain has exactly one stationary distribution, so a
    residual at rounding level proves that ``dist`` is that distribution.
    Irreducibility comes from :func:`is_irreducible_model`; a reducible
    model raises the :class:`ValueError` of :func:`solve_stationary`
    instead of returning a residual, so it can never pass.

    No generator is built.  The residual is accumulated in
    ``np.longdouble``, as in :func:`balance_residuals`, on the tensor
    ``P = dist.reshape((K+1,)*N)``, one family of :func:`_event_pairs` and
    its reverse family at a time: their net flow between the two slices
    they join is added to the residual of the slice it leaves and
    subtracted from the one it enters.  That is O(M·N·K) work for M states.
    """
    if not is_irreducible_model(params):
        raise ValueError(_REDUCIBLE_MESSAGE)
    p = _tensor(dist, params).astype(np.longdouble)
    residual = np.zeros_like(p)
    for a, b, rate_ab, _, rate_ba, _ in _event_pairs(params):
        net = np.longdouble(rate_ab) * p[a] - np.longdouble(rate_ba) * p[b]
        residual[a] += net
        residual[b] -= net
    return float(np.abs(residual).max())


def solve_stationary(gen: Generator) -> np.ndarray:
    """Stationary distribution of an irreducible generator.

    One rule picks the route.  A generator whose cycle mismatch
    (:class:`TreePotential`) is at most ``1e-12`` is reversible, and its
    law is read off the tree potential, ``p ∝ exp(phi - max phi)``, in
    O(edges) (:func:`_solve_reversible`).  Every other generator is solved
    by a sparse LU (:func:`_solve_lu`).  A generator of a reducible model
    (:func:`is_irreducible_model`) raises :class:`ValueError` from its tree
    potential, before either route runs.

    The returned vector sums to one, is strictly positive, and satisfies
    the balance equations with infinity-norm residual at most
    ``RESIDUAL_TOL`` (:func:`balance_residuals`, in extended precision from
    the rates) whichever route produced it; otherwise
    :class:`SingularSystemError` is raised.
    """
    weights = _solve_reversible(gen)
    return _gated(gen, _solve_lu(gen) if weights is None else weights)


def _solve_reversible(gen: Generator) -> np.ndarray | None:
    """Unnormalized stationary weights ``exp(phi - max phi)`` from the tree
    potential, or ``None`` when the generator is not reversible within
    ``_REVERSIBLE_TOL``.

    Detailed balance makes ``log p_j - log p_i`` the edge's log rate ratio,
    so on one component the potential is ``log p`` up to a constant.
    """
    potential = gen.tree_potential
    if potential.mismatch > _REVERSIBLE_TOL:
        return None
    return np.exp(potential.phi - potential.phi.max())


def _solve_lu(gen: Generator) -> np.ndarray:
    """Unnormalized stationary weights of an irreducible generator with
    ``dim >= 2``, from a sparse LU of the balance equations.

    The balance equations ``Q^T p = 0`` are solved with the weight of the
    last state pinned to one: its row and column are dropped, the reduced
    matrix ``A`` is factored by a sparse LU, and the solution is extended
    by the pinned one.  Then one step of iterative refinement with the same
    factors, ``x += A^{-1}(b - A x)``, takes the residual ``b - A x`` from
    :func:`balance_residuals`, in extended precision and from the rates
    themselves, not from ``A``'s rounded diagonal (mixed-precision
    refinement, Moler, J. ACM 1967).  The smallest probabilities then come
    out with small relative error, not only small absolute error: within
    1e-14 of the closed form at N=12, K=1 on x86-64, against up to 3.5e-10
    without the step.

    The factorization keeps every pivot on the diagonal (symmetric
    fill-reducing ordering, no pivoting), which is safe here: ``-A`` has a
    positive diagonal and non-positive off-diagonal entries, each of its
    columns sums to the rate from that state into the pinned one (a column
    of ``Q^T`` sums to zero), so it is column diagonally dominant, and
    irreducibility makes it a nonsingular M-matrix.  Gaussian elimination
    without pivoting is stable on a column diagonally dominant matrix, and
    every Schur complement of an M-matrix is again one, so no pivot
    vanishes or changes sign.  The fill-in grows fast with lattice length
    (see the README's scale table).
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m = gen.dim
    diag = np.arange(m)
    qt = sp.csc_matrix(
        (
            np.concatenate([gen.rates, -gen.exit_rates()]),
            (np.concatenate([gen.cols, diag]), np.concatenate([gen.rows, diag])),
        ),
        shape=(m, m),
    )
    try:
        lu = splu(
            qt[:-1, :-1],
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystemError(f"balance system is singular: {exc}") from exc
    p = np.append(lu.solve(-qt[:-1, -1].toarray().ravel()), 1.0)
    # The refinement's right-hand side b - A x is the balance residual of the
    # free states.
    p[:-1] += lu.solve(balance_residuals(gen, p)[:-1])
    return p


def _gated(gen: Generator, weights: np.ndarray) -> np.ndarray:
    """``weights`` normalized, after the global-balance gate and the
    positivity check that every solve route passes through."""
    p = weights / weights.sum()
    residual = float(np.abs(balance_residuals(gen, p)).max())
    if residual > RESIDUAL_TOL:
        raise SingularSystemError(
            f"stationary solve residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "the system is too ill-conditioned to trust"
        )
    if p.min() <= 0.0:
        raise SingularSystemError("solve produced a non-positive probability")
    return p


def normalization_constant(params: ModelParams) -> float:
    """Probability of the all-vacant state in the closed form:
    ``(1 + sum_k alpha_k / beta_k) ** -n_sites``."""
    total = sum(a / b for a, b in zip(params.alpha, params.beta))
    return float((1.0 + total) ** (-params.n_sites))


def product_form(params: ModelParams) -> np.ndarray:
    """Closed-form stationary distribution, indexed by the canonical encoding.

    The probability of a state is the normalization constant times the
    product of ``alpha_k / beta_k`` over its occupied sites.  Independent
    of the hop rates.
    """
    ratios = np.array([a / b for a, b in zip(params.alpha, params.beta)])
    weights = np.concatenate(([1.0], ratios))
    probs = weights
    for _ in range(params.n_sites - 1):
        probs = np.multiply.outer(probs, weights).ravel()
    return probs * normalization_constant(params)


def site_marginal(params: ModelParams) -> np.ndarray:
    """Stationary distribution of a site's occupancy, the same at every site.

    Entry 0 is the vacancy probability, entry k the probability of holding
    a type-k particle.
    """
    ratios = np.array([a / b for a, b in zip(params.alpha, params.beta)])
    denom = 1.0 + ratios.sum()
    return np.concatenate(([1.0 / denom], ratios / denom))


def marginals_from_distribution(dist: np.ndarray, params: ModelParams) -> np.ndarray:
    """Per-site occupancy marginals of a full distribution.

    Returns an (n_sites, n_types + 1) matrix whose row i sums ``dist``
    over all states with the given value at site i+1.
    """
    p, n = _tensor(dist, params), params.n_sites
    return np.stack([p.sum(axis=tuple(j for j in range(n) if j != i)) for i in range(n)])
