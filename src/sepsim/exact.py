"""Exact engine: rate generator, numerical stationary solve, closed forms.

The generator of the lattice process is stored as off-diagonal COO arrays
in a canonical (row, col) order; the diagonal is implied (negative exit
rate), so row sums are zero by construction.  :func:`build_generator` adds
each event family next to its reverse family, so it knows each edge's
reverse without a search, and puts the edges in order with one stable
sort of a single integer key; the generator keeps the reverse of each
edge (:attr:`Generator.reverse`) as derived data, checked in O(edges)
whenever a generator or a copy of one is made.  A model is solved one of
two ways, chosen by one rule on the generator itself:

- reversible generators (structurally symmetric support whose rate ratios
  close every cycle, Kolmogorov's criterion) take their stationary law
  straight from Kelly's spanning-tree potential of those ratios, which is
  computed once per generator (:attr:`Generator.tree_potential`) and
  shared with the cycle check of :mod:`sepsim.reversibility`.  A
  generator built from a model is spanned by the tree of the
  irreducibility lemma (:func:`is_irreducible_model`), in numpy alone;
- every other generator pins the weight of its last state to one and
  factors the remaining balance equations by a sparse LU without
  pivoting, which is stable because the reduced system is a column
  diagonally dominant M-matrix, and one step of iterative refinement with
  the same factors, on a residual accumulated in extended precision, gives
  the small probabilities a small relative error too.

Both routes end in the same global-balance gate and positivity check.

scipy is imported only where it is needed, so importing this module, and
solving or checking a model's own generator, loads numpy alone.  The LU
(and with it every non-reversible generator, such as the negative
control's perturbed copy), the directed search of :func:`is_irreducible`,
and the breadth-first forest that spans a generator without an
irreducible model, or whose support lacks an edge of the lemma's tree,
import it on first use.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .model import ModelParams, hop_rates, state_space_size

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
    "is_irreducible",
    "is_irreducible_model",
    "certify_stationary",
    "solve_stationary",
    "product_form",
    "normalization_constant",
    "site_marginal",
    "joint_from_marginals",
    "marginals_from_distribution",
]

DEFAULT_STATE_CAP = 1 << 24
STATE_CAP_ENV = "SEPSIM_STATE_CAP"
RESIDUAL_TOL = 1e-10
# Largest cycle mismatch for which the stationary law is read off the tree
# potential.  Reversible generators built here stay below 1e-14; a broken
# rate symmetry shows at the size of the break.
_REVERSIBLE_TOL = 1e-12

# Transition classes: an edge adds a particle, removes one, or moves one.
EDGE_ARRIVAL, EDGE_DEPARTURE, EDGE_HOP = 1, 2, 3
EDGE_CLASS_NAMES = {EDGE_ARRIVAL: "arrival", EDGE_DEPARTURE: "departure", EDGE_HOP: "hop"}
# Largest state count plus one: below it the key rows * dim + cols of an
# edge fits in int64.
_MAX_DIM = 1 << 31


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


def resolve_state_cap(cap: int | None = None) -> int:
    """Effective exact-engine state cap: explicit argument, else the
    ``SEPSIM_STATE_CAP`` environment variable, else the built-in default."""
    if cap is None:
        raw = os.environ.get(STATE_CAP_ENV)
        cap = int(raw) if raw is not None else DEFAULT_STATE_CAP
    if cap < 1:
        raise ValueError(f"state cap must be >= 1, got {cap}")
    return cap


class TreePotential(NamedTuple):
    """Kelly's spanning-tree potential of a structurally symmetric generator.

    With ``L_ij = log(rate(i->j) / rate(j->i))`` on each edge, ``phi``
    satisfies ``phi_j = phi_i + L_ij`` along a spanning tree of each
    connected component of the support and is zero at each root.
    ``mismatch`` is ``max |expm1(L_ij - (phi_j - phi_i))|`` over every
    edge: the worst relative mismatch of forward and reverse rate products
    over the fundamental cycles, which span all cycles, so it vanishes up
    to rounding exactly when the chain is reversible (Kelly, Reversibility
    and Stochastic Networks, 1979, section 1.5).  Then ``exp(phi)`` is the
    stationary law up to one constant per component.  ``n_components``
    counts the components; a symmetric support is strongly connected iff
    there is one.
    """

    phi: np.ndarray
    mismatch: float
    n_components: int


@dataclass(frozen=True, eq=False)
class Generator:
    """Off-diagonal transition rates of the lattice process.

    ``rows``, ``cols``, ``rates`` and ``kinds`` are parallel arrays holding
    one directed edge each, sorted by (row, col).  The diagonal entry of
    state ``i`` is implied as minus its exit rate, so every row of the full
    matrix sums to zero exactly.  ``params`` records the model the support
    was built from (perturbed copies keep it for state decoding even
    though their rates no longer follow the model).  The arrays are
    read-only; build a changed copy with :func:`dataclasses.replace`.

    ``reverse`` is derived data, not an option: ``reverse[e]`` is the index
    of the edge ``cols[e] -> rows[e]``, and it is ``None`` when the support
    is not structurally symmetric (an edge without its reverse).  One that
    is given is checked in O(edges) and a wrong one raises
    :class:`ValueError`; otherwise it is found once by a sort.  Edges given
    out of order are sorted, with one stable sort of the key
    ``rows * dim + cols``, and ``reverse`` follows them; edges already in
    order are only checked.  So a copy made with
    :func:`dataclasses.replace`, which passes the sorted arrays and their
    ``reverse`` on, costs O(edges) checks and no sort.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    kinds: np.ndarray
    params: ModelParams | None = field(default=None)
    reverse: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
            raise ValueError(f"dimension must be an integer, got {dim!r}")
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if dim >= _MAX_DIM:
            # Keeps the key rows * dim + cols inside int64.
            raise ValueError(f"dimension must be below 2**31, got {dim}")
        rows = _exact_cast(self.rows, np.int64, "rows")
        cols = _exact_cast(self.cols, np.int64, "cols")
        rates = np.asarray(self.rates, dtype=np.float64)
        kinds = _exact_cast(self.kinds, np.int8, "kinds")
        reverse = None if self.reverse is None else _exact_cast(self.reverse, np.int64, "reverse")
        if not (rows.shape == cols.shape == rates.shape == kinds.shape) or rows.ndim != 1:
            raise ValueError("edge arrays must be one-dimensional with identical shapes")
        if reverse is not None and reverse.shape != rows.shape:
            raise ValueError("reverse must hold one edge index per edge")
        if rows.size:
            if rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim:
                raise ValueError("edge endpoints outside the state space")
            if np.any(rows == cols):
                raise ValueError("diagonal entries are implied and must not be stored")
            if np.any(rates <= 0.0) or not np.all(np.isfinite(rates)):
                raise ValueError("stored rates must be positive and finite")
            if kinds.min() < EDGE_ARRIVAL or kinds.max() > EDGE_HOP:
                raise ValueError("unknown edge class code")
            if reverse is not None and (reverse.min() < 0 or reverse.max() >= rows.size):
                raise ValueError("reverse holds an index outside the edges")
        key = rows * dim + cols
        # Strictly increasing keys are sorted and free of duplicates.
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate transition between the same state pair")
            rows, cols, rates, kinds = rows[order], cols[order], rates[order], kinds[order]
            if reverse is not None:
                reverse = _follow(reverse, order)
        del key
        if reverse is None:
            reverse = np.argsort(cols * dim + rows)
            if not _reverses(rows, cols, reverse):
                reverse = None
        elif not _reverses(rows, cols, reverse):
            raise ValueError("reverse does not give each edge's reverse edge")
        object.__setattr__(self, "dim", dim)
        for name, array in (
            ("rows", rows), ("cols", cols), ("rates", rates), ("kinds", kinds), ("reverse", reverse)
        ):
            if array is not None:
                if array is getattr(self, name) and array.flags.writeable:
                    array = array.copy()  # the caller's own array stays theirs
                # Read-only, so the memoised tree potential cannot go stale.
                array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_edges(self) -> int:
        return int(self.rates.size)

    def exit_rates(self) -> np.ndarray:
        """Total rate out of each state (magnitude of the implied diagonal)."""
        return np.bincount(self.rows, weights=self.rates, minlength=self.dim)

    def to_dense(self) -> np.ndarray:
        """Full dense generator including the implied diagonal."""
        q = np.zeros((self.dim, self.dim))
        q[self.rows, self.cols] = self.rates
        q[np.arange(self.dim), np.arange(self.dim)] = -self.exit_rates()
        return q

    @cached_property
    def tree_potential(self) -> TreePotential | None:
        """The :class:`TreePotential` of these rates, computed on first use
        and kept; ``None`` when the support is not structurally symmetric.

        When ``params`` is an irreducible model of this state space and the
        support holds every edge of the irreducibility lemma's tree (each
        state's leftmost particle leaves, or hops one site left; rooted at
        the empty lattice), that tree is used, in numpy alone.  Otherwise
        the tree is a breadth-first forest of the support from scipy's
        graph searches, rooted at the lowest state of each component.  The
        tree depends on the support only, so the mismatch is taken over
        every edge whatever the rates: a perturbed copy, which keeps
        ``params``, still shows its break.

        Copies made with :func:`dataclasses.replace` are new instances, so
        a perturbed or reversed generator computes its own.
        """
        if self.reverse is None:
            return None
        # In place where the result does not change, to hold fewer
        # edge-sized temporaries at once.
        log_ratio = np.log(self.rates)
        log_ratio -= np.log(reverse_rates(self))
        phi, n_components = _forest_potential(self, log_ratio)
        mismatch = phi[self.cols]
        mismatch -= phi[self.rows]
        np.subtract(log_ratio, mismatch, out=mismatch)
        np.abs(np.expm1(mismatch, out=mismatch), out=mismatch)
        return TreePotential(phi, float(mismatch.max(initial=0.0)), n_components)


def _exact_cast(values, dtype, name: str) -> np.ndarray:
    """``values`` as an array of ``dtype``, refusing any value the cast
    would change (a wrapped integer, a truncated float).  An empty list,
    which numpy reads as float64, is accepted."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):
        array = raw.astype(dtype, copy=False)
    if array is not raw and raw.size and not np.array_equal(array, raw):
        raise ValueError(f"{name} holds values that are not {np.dtype(dtype).name}")
    return array


def _reverses(rows: np.ndarray, cols: np.ndarray, reverse: np.ndarray) -> bool:
    """True when edge ``reverse[e]`` runs ``cols[e] -> rows[e]`` for every
    ``e``.  With no duplicate edges that pins ``reverse`` down."""
    return np.array_equal(rows[reverse], cols) and np.array_equal(cols[reverse], rows)


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
    order: a type-k arrival at a vacant site against its departure, for k =
    1..K, on axis 0 and then on axis N-1; then on each bond ``(i, i+1)`` a
    type-k right hop, ``(k, 0) -> (0, k)``, against its left hop, for each
    k whose rate in :func:`~sepsim.model.hop_rates` is positive.
    """
    full = (slice(None),) * params.n_sites

    def at(axis: int, *values: int) -> tuple:
        """The states holding ``values`` on the axes from ``axis`` on."""
        return full[:axis] + values + full[axis + len(values):]

    for axis in (0, params.n_sites - 1):
        for k, (alpha, beta) in enumerate(zip(params.alpha, params.beta), 1):
            yield at(axis, 0), at(axis, k), alpha, EDGE_ARRIVAL, beta, EDGE_DEPARTURE
    for i in range(params.n_sites - 1):
        for k, rate in enumerate(hop_rates(params), 1):
            if rate > 0.0:
                yield at(i, k, 0), at(i, 0, k), rate, EDGE_HOP, rate, EDGE_HOP


def build_generator(params: ModelParams, *, cap: int | None = None) -> Generator:
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
    the reverse indices follow it, so :class:`Generator` only checks both.
    """
    m = state_space_size(params)
    limit = resolve_state_cap(cap)
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
    :attr:`Generator.reverse`.  Requires the transition support to be
    structurally symmetric (an edge exists iff its reverse does), which
    holds for every generator built here.
    """
    if gen.reverse is None:
        raise ValueError("transition support is not structurally symmetric")
    return gen.rates[gen.reverse]


def _forest_potential(gen: Generator, log_ratio: np.ndarray) -> tuple[np.ndarray, int]:
    """Potential with ``phi_j = phi_i + log_ratio[i->j]`` along a spanning
    tree of each connected component, zero at each component's root, and
    the number of components.  For a reversible chain it is
    ``log(stationary)`` up to one constant per component.

    The tree is the irreducibility lemma's (:func:`_lemma_tree`) when the
    generator carries its model and holds every edge of that tree, and a
    breadth-first forest of the support otherwise (:func:`_search_forest`).
    """
    if gen.n_edges == 0:
        return np.zeros(gen.dim), gen.dim
    forest = _lemma_tree(gen)
    parent, child, edge = forest if forest is not None else _search_forest(gen)
    potential = np.zeros(gen.dim)
    potential[child] = log_ratio[edge]
    # Pointer doubling: potential[v] sums the log ratios from up[v] down
    # to v, and up[v] climbs until it reaches the root.
    up = parent
    while np.any(up[up] != up):
        potential = potential + potential[up]
        up = up[up]
    # A forest on dim states with one tree edge per non-root state.
    return potential, gen.dim - child.size


def _find_edges(gen: Generator, src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """Index of the edge ``src[i] -> dst[i]`` for each ``i``, or ``None``
    when one of them is not stored, by binary search on the (row, col)
    order."""
    keys = gen.rows * gen.dim + gen.cols
    query = src * gen.dim + dst
    edge = np.minimum(np.searchsorted(keys, query), gen.n_edges - 1)
    return edge if np.array_equal(keys[edge], query) else None


def _lemma_tree(gen: Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The spanning tree of :func:`is_irreducible_model`'s proof, rooted at
    the empty lattice (index 0), as ``(parent, child, edge)``: ``parent[v]``
    (the root is its own parent), the non-root states, and the edge
    ``parent[c] -> c`` of each.  ``None`` when the generator does not carry
    an irreducible model or lacks one of the tree's edges.

    In a non-empty state take the leftmost particle, of type k at site i.
    On site 1 or site N its parent is the state without it, so the tree
    edge is an arrival; otherwise the parent has it one site to the left,
    where the site is vacant, and the edge is a type-k hop, which exists
    because the lemma gives ``delta_k > 0`` on more than two sites.  Site 1
    is the most significant digit, so the states whose leftmost particle
    sits on site i are one contiguous index block per site: no search.
    """
    params = gen.params
    if params is None or gen.dim != state_space_size(params) or not is_irreducible_model(params):
        return None
    n, base = params.n_sites, params.n_types + 1
    state = np.arange(gen.dim, dtype=np.int64)
    parent = state.copy()
    for i in range(n):
        # Leading digit at site i + 1: the states [w, base * w).
        w = base ** (n - 1 - i)
        kind, rest = np.divmod(state[w:base * w], w)
        parent[w:base * w] = rest if i in (0, n - 1) else rest + kind * (base * w)
    edge = _find_edges(gen, parent[1:], state[1:])
    return None if edge is None else (parent, state[1:], edge)


def _search_forest(gen: Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A breadth-first spanning forest of the support, from the lowest
    state of each connected component, as ``(parent, child, edge)`` like
    :func:`_lemma_tree`.  Imports scipy's graph searches."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    graph = sp.csr_matrix(
        (np.ones(gen.n_edges, dtype=np.int8), (gen.rows, gen.cols)), shape=(gen.dim, gen.dim)
    )
    n_components, labels = connected_components(graph, directed=False)
    roots = np.unique(labels, return_index=True)[1]
    source = 0
    if n_components > 1:
        # One search from an extra state joined to every component's root
        # spans them all, and within a component it visits the states in
        # the order a search from that root would.
        source = gen.dim
        graph = sp.csr_matrix(
            (
                np.ones(gen.n_edges + roots.size, dtype=np.int8),
                (np.append(gen.rows, np.full(roots.size, source)), np.append(gen.cols, roots)),
            ),
            shape=(source + 1, source + 1),
        )
    parent = breadth_first_order(graph, source, directed=False, return_predecessors=True)[1][: gen.dim]
    parent[roots] = roots
    child = np.nonzero(parent != np.arange(gen.dim))[0]
    return parent, child, _find_edges(gen, parent[child], child)


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


def is_irreducible(gen: Generator) -> bool:
    """True when the transition graph is strongly connected, by scipy's
    graph search."""
    if gen.n_edges == 0:
        return gen.dim == 1
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    adjacency = sp.csr_matrix(
        (np.ones(gen.n_edges, dtype=np.int8), (gen.rows, gen.cols)), shape=(gen.dim, gen.dim)
    )
    n_components, _ = connected_components(adjacency, directed=True, connection="strong")
    return n_components == 1


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

    One rule picks the route.  A generator whose support is structurally
    symmetric and whose cycle mismatch (:class:`TreePotential`) is at most
    ``1e-12`` is reversible, and its law is read off the tree potential,
    ``p ∝ exp(phi - max phi)``, in O(edges) (:func:`_solve_reversible`).
    Every other generator is solved by a sparse LU (:func:`_solve_lu`).
    Irreducibility of a symmetric support is the potential's component
    count; only an asymmetric one needs the directed search of
    :func:`is_irreducible`.

    The returned vector sums to one, is strictly positive, and satisfies
    the balance equations with infinity-norm residual at most
    ``RESIDUAL_TOL`` (:func:`balance_residuals`, in extended precision from
    the rates) whichever route produced it; otherwise
    :class:`SingularSystemError` is raised.
    """
    potential = gen.tree_potential
    irreducible = is_irreducible(gen) if potential is None else potential.n_components == 1
    if not irreducible:
        raise ValueError(_REDUCIBLE_MESSAGE)
    weights = _solve_reversible(gen)
    return _gated(gen, _solve_lu(gen) if weights is None else weights)


def _solve_reversible(gen: Generator) -> np.ndarray | None:
    """Unnormalized stationary weights ``exp(phi - max phi)`` from the tree
    potential, or ``None`` when the generator is not reversible within
    ``_REVERSIBLE_TOL`` (or its support is not structurally symmetric).

    Detailed balance makes ``log p_j - log p_i`` the edge's log rate ratio,
    so on one component the potential is ``log p`` up to a constant.
    """
    potential = gen.tree_potential
    if potential is None or potential.mismatch > _REVERSIBLE_TOL:
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
    of the hop rates and of ``boundary_hops``.
    """
    ratios = np.array([a / b for a, b in zip(params.alpha, params.beta)])
    weights = np.concatenate(([1.0], ratios))
    probs = weights
    for _ in range(params.n_sites - 1):
        probs = np.kron(probs, weights)
    return probs * normalization_constant(params)


def site_marginal(params: ModelParams, site: int) -> np.ndarray:
    """Stationary distribution of one site's occupancy.

    Entry 0 is the vacancy probability, entry k the probability of holding
    a type-k particle.  Identical for every site; ``site`` is validated
    but does not influence the value.
    """
    if not 1 <= site <= params.n_sites:
        raise ValueError(f"site {site} outside 1..{params.n_sites}")
    ratios = np.array([a / b for a, b in zip(params.alpha, params.beta)])
    denom = 1.0 + ratios.sum()
    return np.concatenate(([1.0 / denom], ratios / denom))


def joint_from_marginals(params: ModelParams) -> np.ndarray:
    """Joint distribution assembled as the product of the site marginals.

    Algebraically identical to :func:`product_form`; computed through the
    normalized marginals instead of the global constant so the identity
    can be asserted numerically.
    """
    marginal = site_marginal(params, 1)
    probs = marginal
    for _ in range(params.n_sites - 1):
        probs = np.kron(probs, marginal)
    return probs


def marginals_from_distribution(dist: np.ndarray, params: ModelParams) -> np.ndarray:
    """Per-site occupancy marginals of a full distribution.

    Returns an (n_sites, n_types + 1) matrix whose row i sums ``dist``
    over all states with the given value at site i+1.
    """
    p, n = _tensor(dist, params), params.n_sites
    return np.stack([p.sum(axis=tuple(j for j in range(n) if j != i)) for i in range(n)])
