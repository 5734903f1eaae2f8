"""Trace-word invariants of qubit-qutrit states.

A trace word is a product of the matrices alpha, beta, gamma (letters 'a',
'b', 'g') followed by a matrix trace.  Because the trace is cyclic and
alpha and beta commute (they act on different tensor factors), words are
identified modulo cyclic rotation and adjacent a<->b swaps; the canonical
representative is the lexicographic minimum of the equivalence class.

The trace values are polynomials in (a, b, C) invariant under conjugation
by SU(2) x SU(3).  This module enumerates canonical words, evaluates them,
finds the words whose trace vanishes identically (the kernel), verifies the
exchange identities between specific traces and traces of the su(3) blocks
M_i = sum_a C_ia lambda_a, B = sum_a b_a lambda_a, measures ranks of
invariant collections and gives independence evidence from the rank of the
words' exact Jacobian in the 35 coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _args, casimir_positivity, states, su_algebra
from ._args import DEFAULT_PANEL_SEED, MAX_WORD_DEGREE
from .states import QubitQutritState

LETTERS = "abg"

DEFAULT_PANEL_SIZE = 200
KERNEL_TOL = 1e-9
CHECK_TOL = 1e-9
IMAG_TOL = 1e-9
RANK_EPS = 1e-12
JACOBIAN_PARAM_SCALE = 0.3

#: linearly independent invariants that are not products of lower ones
LISTED_DEGREE2 = ("aa", "bb", "gg")
LISTED_DEGREE3 = ("bbb", "ggg", "abg", "bgg")
LISTED_DEGREE4 = ("gggg", "aggg", "bggg", "agag", "bbgg", "bgbg", "abbg", "abgg")


def _check_letters(word: str) -> None:
    if not word or any(ch not in LETTERS for ch in word):
        raise ValueError(f"word must be nonempty over {LETTERS!r}, got {word!r}")


@dataclass(frozen=True, order=True)
class TraceWord:
    """Canonical word over {alpha, beta, gamma}; letters is e.g. 'abgg'."""

    letters: str

    def __post_init__(self):
        canonical = canonical_form(self.letters)
        if canonical != self.letters:
            raise ValueError(f"word {self.letters!r} is not canonical; "
                             f"its canonical form is {canonical!r}")

    @property
    def multidegree(self) -> tuple[int, int, int]:
        return (self.letters.count("a"), self.letters.count("b"),
                self.letters.count("g"))

    def __str__(self) -> str:
        return self.letters


def canonical_form(word: str) -> str:
    """Lexicographic minimum of the word's class under cyclic rotation and
    adjacent alpha/beta swaps.  A word without gamma is a^i b^j.  Otherwise
    the class is the cyclic sequence of its gamma-terminated blocks, each
    block a^i b^j g since alpha and beta commute inside it, and the minimum
    starts at a block start: it is the least rotation of that sequence."""
    _check_letters(word)
    if "g" not in word:
        return "a" * word.count("a") + "b" * word.count("b")
    cut = word.rindex("g") + 1
    blocks = ["a" * b.count("a") + "b" * b.count("b") + "g"
              for b in (word[cut:] + word[:cut]).split("g")[:-1]]
    return min("".join(blocks[i:] + blocks[:i]) for i in range(len(blocks)))


def trace_word(word: str) -> TraceWord:
    return TraceWord(canonical_form(word))


# The cached functions below are typed caches: True == 1 would otherwise be
# served the entry of 1 without reaching the integer check.

@lru_cache(maxsize=None, typed=True)
def enumerate_words(degree: int) -> tuple[TraceWord, ...]:
    """All canonical words of the given length (1..MAX_WORD_DEGREE), sorted."""
    degree = _args.integer(degree, "degree", 1, MAX_WORD_DEGREE)
    reps = {canonical_form("".join(t))
            for t in itertools.product(LETTERS, repeat=degree)}
    return tuple(TraceWord(w) for w in sorted(reps))


def _letter_matrices(state: QubitQutritState) -> dict:
    """alpha, beta, gamma of a state, or (N, 6, 6) stacks of a stacked state;
    _eval_on adds the prefix products it forms to this dict, and _panel_su3
    the su(3) contractions."""
    return dict(zip(LETTERS, states.letter_matrices(state)))


def _product(mats: dict[str, np.ndarray], word: str) -> np.ndarray:
    """Product of the word's letter matrices, left to right, memoized in mats
    under every prefix, so words sharing a prefix multiply it once."""
    if word not in mats:
        mats[word] = _product(mats, word[:-1]) @ mats[word[-1]]
    return mats[word]


def _tr(x):
    """Trace over the last two axes (one value per matrix of a stack)."""
    return np.trace(x, axis1=-2, axis2=-1)


def _eval_on(mats: dict[str, np.ndarray], word: str) -> complex | np.ndarray:
    """Trace of the word over the letter matrices in mats: a complex number,
    or an array over the batch axis of stacked matrices."""
    return _tr(_product(mats, word))


def _one_or_many(words) -> tuple[list, bool]:
    """(the words as a list, whether one word was given): a str or a
    TraceWord is one word, anything else a sequence of words."""
    one = isinstance(words, (str, TraceWord))
    return ([words] if one else list(words)), one


def eval_trace_complex(word, state: QubitQutritState) -> complex | np.ndarray | list:
    """Trace of the word's matrix product, imaginary part and all (an array
    of traces for a stacked state).  word is one word or a sequence of them;
    a sequence gives a list of traces, all taken over one set of letter
    matrices and prefix products, each bit for bit the one-word value.

    Words of degree >= 5 whose class is not closed under reversal can have
    genuinely complex traces; real and imaginary parts are then separately
    invariant polynomials.  A non-finite or huge coordinate gives non-finite
    traces quietly, as letter_matrices gives non-finite letters."""
    words, one = _one_or_many(word)
    mats = _letter_matrices(state)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [_eval_on(mats, _letters(w)) for w in words]
    return values[0] if one else values


def _letters(word) -> str:
    return word.letters if isinstance(word, TraceWord) else canonical_form(word)


def eval_trace(word, state: QubitQutritState) -> float | np.ndarray | list:
    """Real trace of the word's matrix product, or a list of them for a
    sequence of words; a word whose trace picks up an imaginary part beyond
    IMAG_TOL (on any state of a stack) is flagged by raising, never truncated."""
    words, one = _one_or_many(word)
    values = eval_trace_complex(words, state)
    for w, val in zip(words, values):
        worst = float(np.abs(val.imag).max())
        if worst > IMAG_TOL:
            raise ValueError(
                f"trace of word {str(w)!r} has an imaginary part of {worst:.3e}")
    return values[0].real if one else [val.real for val in values]


# The panel store: per start seed, the read-only (n, 35) coordinate array of
# the stack random_density(start + i), i < n, the largest size requested so
# far.  A state is 35 floats, 280 bytes.  At most _PANEL_STARTS start seeds
# and _PANEL_STATES states (1.1 MB) are kept, the least recently used start
# dropped first; only a single panel larger than that is kept on its own.
# One selftest at its defaults keeps three starts and 265 states (74 KB).
_PANELS: dict[int, np.ndarray] = {}
_PANEL_STARTS = 8
_PANEL_STATES = 4096


def random_panel(seed: int = DEFAULT_PANEL_SEED,
                 size: int = DEFAULT_PANEL_SIZE) -> QubitQutritState:
    """Seeded Ginibre state panel used by all identity checks: the stack of
    random_density(seed + i) for i < size.  Each state is drawn once per
    process: the panel's coordinates are a read-only view of a prefix of
    the stored stack starting at seed, which a larger request extends by
    the states it lacks."""
    seed, size = _args.seed(seed), _args.integer(size, "size", 1)
    held = _PANELS.pop(seed, np.empty((0, 35)))
    if size > len(held):
        more = states.random_densities(range(seed + len(held), seed + size))
        held = np.concatenate((held, more.x))
        held.flags.writeable = False
    _PANELS[seed] = held
    while len(_PANELS) > 1 and (
            len(_PANELS) > _PANEL_STARTS
            or sum(map(len, _PANELS.values())) > _PANEL_STATES):
        del _PANELS[next(iter(_PANELS))]
    return QubitQutritState._of(held[:size])


@dataclass(frozen=True)
class KernelResult:
    degree: int
    words: tuple[TraceWord, ...]
    seed: int
    panel_size: int
    threshold: float


def _kernel_words(degree, mats):
    return tuple(w for w in enumerate_words(degree)
                 if np.abs(_eval_on(mats, w.letters)).max() < KERNEL_TOL)


def kernel_at_degree(degree: int, seed: int = DEFAULT_PANEL_SEED,
                     panel_size: int = DEFAULT_PANEL_SIZE) -> KernelResult:
    """Canonical words of the degree (1..6) whose trace vanishes on the
    whole seeded panel."""
    seed, degree = _args.seed(seed), _args.integer(degree, "degree", 1, 6)
    panel_size = _args.integer(panel_size, "panel_size", 1)
    mats = _letter_matrices(random_panel(seed, panel_size))
    return KernelResult(degree, _kernel_words(degree, mats), seed,
                        panel_size, KERNEL_TOL)


@lru_cache(maxsize=None, typed=True)
def nonkernel_words(degree: int, seed: int = DEFAULT_PANEL_SEED) -> tuple[TraceWord, ...]:
    """The words of the degree outside the kernel on the default seeded
    panel, found once per degree and seed."""
    seed, degree = _args.seed(seed), _args.integer(degree, "degree")
    mats = _letter_matrices(random_panel(seed, DEFAULT_PANEL_SIZE))
    dead = set(_kernel_words(degree, mats))
    return tuple(w for w in enumerate_words(degree) if w not in dead)


# -- identity checks ------------------------------------------------------------

def _traceless(x):
    """T(X) = X - tr(X)/3 I for 3x3 matrices X (or stacks of them)."""
    return x - _tr(x)[..., None, None] * np.eye(3) / 3.0


def _su3_contractions(s) -> dict[str, np.ndarray]:
    """The su(3) contractions of the exchange identities as traces of the
    blocks M_i = sum_a C_ia lambda_a and B = sum_a b_a lambda_a, per state of
    a stack (G = C^T C, S = sum_i M_i^2, T = _traceless):

      gamma3  -4 eps_ijk f_abc C_ia C_jb C_kc = Re 6i tr(M_1 [M_2, M_3])
      ff      f_apc f_cbq G_ab G_pq = -(1/8) sum_ij tr([M_i, M_j]^2)
      dd      d_abc d_cpq G_ab G_pq = (1/2) tr(T(S)^2)
      bbgg    d_abk d_kcd b_a b_b G_cd = (1/2) tr(T(B^2) S)
      bgbg    d_abk d_kcd b_a b_c G_bd = (1/8) sum_i tr(T({B, M_i})^2)
    """
    M = np.einsum("...ia,auv->...iuv", s.C, su_algebra.GELL_MANN)
    B = np.einsum("...a,auv->...uv", s.b, su_algebra.GELL_MANN)
    comm = M[..., :, None, :, :] @ M[..., None, :, :, :]
    comm = comm - np.swapaxes(comm, -3, -4)
    S = (M @ M).sum(axis=-3)
    P = _traceless(S)
    anti = _traceless(B[..., None, :, :] @ M + M @ B[..., None, :, :])
    return {"gamma3": (6j * _tr(M[..., 0, :, :] @ comm[..., 1, 2, :, :])).real,
            "ff": -_tr(comm @ comm).real.sum(axis=(-2, -1)) / 8.0,
            "dd": 0.5 * _tr(P @ P).real,
            "bbgg": 0.5 * _tr(_traceless(B @ B) @ S).real,
            "bgbg": _tr(anti @ anti).real.sum(axis=-1) / 8.0}


def _panel_su3(s, mats) -> dict[str, np.ndarray]:
    """_su3_contractions of the panel, formed once and kept in its letter
    matrix dict under a key no trace word can take."""
    if "su3" not in mats:
        mats["su3"] = _su3_contractions(s)
    return mats["su3"]


def _sign_relation(s, mats):
    """tr(a b g g) = -tr(a g b g)."""
    z = _eval_on(mats, "abgg") + _eval_on(mats, "agbg")
    # |z| by libm hypot, which Python's abs(complex) uses; numpy's complex
    # absolute value can differ from it in the last bit
    return {"sign_relation": np.hypot(z.real, z.imag)}


def _gamma3_formula(s, mats):
    """tr(g^3) = -4 eps_ijk f_abc C_ia C_jb C_kc = Re 6i tr(M_1 [M_2, M_3])."""
    return {"gamma3_formula": abs(_eval_on(mats, "ggg").real
                                  - _panel_su3(s, mats)["gamma3"])}


def _i004_identity(s, mats):
    """Degree-(0,0,4) exchange identity between the d- and f-contracted
    correlation invariants (both as traces, see _su3_contractions):

        d_abc d_cpq G_ab G_pq = (2/3) f_apc f_cbq G_ab G_pq
                                - (1/3) [ (tr G)^2 - 2 tr(G^2) ],  G = C^T C.
    """
    G, c = np.swapaxes(s.C, -1, -2) @ s.C, _panel_su3(s, mats)
    rhs = (2.0 / 3.0) * c["ff"] - (_tr(G) ** 2 - 2.0 * _tr(G @ G)) / 3.0
    return {"i004_identity": abs(c["dd"] - rhs)}


def _product_relation(s, mats):
    """tr(a a b b) = (1/6) tr(a a) tr(b b)."""
    t = lambda w: _eval_on(mats, w).real
    return {"product_relation": abs(t("aabb") - t("aa") * t("bb") / 6.0)}


def _multidegree_relations(s, mats):
    """Relations tying same-multidegree traces to explicit (a, b, C)
    contractions (the d-contractions as traces, see _su3_contractions):

      (2,0,2): tr(a a g g) + tr(a g a g) = 8 a C C^T a
               tr(a a g g) = (1/6) tr(a a) tr(g g)
      (0,2,2): tr(b b g g) - (1/6) tr(b b) tr(g g)
                   = 4 d_{j1 j2 k} d_{k j3 j4} b_{j1} b_{j2} (C^T C)_{j3 j4}
               tr(b b g g) + tr(b g b g)
                   = 8 [ (2/3) b C^T C b
                         + d_{j1 j2 k} d_{k j3 j4} b_{j1} b_{j3} (C^T C)_{j2 j4} ]
    """
    t = lambda w: _eval_on(mats, w).real
    c = _panel_su3(s, mats)
    aCCa = ((s.a[..., None, :] @ s.C) ** 2).sum(axis=(-2, -1))
    bGb = ((s.C @ s.b[..., :, None]) ** 2).sum(axis=(-2, -1))
    return {
        "aagg_agag": abs(t("aagg") + t("agag") - 8.0 * aCCa),
        "aagg_product": abs(t("aagg") - t("aa") * t("gg") / 6.0),
        "bbgg_product": abs(t("bbgg") - t("bb") * t("gg") / 6.0
                            - 4.0 * c["bbgg"]),
        "bbgg_bgbg": abs(t("bbgg") + t("bgbg")
                         - 8.0 * ((2.0 / 3.0) * bGb + c["bgbg"])),
    }


def _casimir_decomposition(s, mats):
    """Expansions of 6 c_2, 6 c_3 and 6 c_4 over the trace scalars, against
    the trace-route Casimir values."""
    t = lambda w: _eval_on(mats, w).real
    c2, c3, c4, _, _ = casimir_positivity.casimirs_from_traces(s).raw
    dec4 = ((t("aa") * (2 * t("bb") + t("gg"))
             + 0.25 * t("bb") ** 2 - 0.5 * t("gg") ** 2
             - t("bb") * t("gg")) / 3.0
            + 4 * (t("aggg") + t("bggg") + t("bbgg") + t("abgg")
                   + 3 * t("abbg"))
            + 2 * (t("agag") + t("bgbg"))
            + t("gggg"))
    return {"c2": abs(6 * c2 - (t("aa") + t("bb") + t("gg"))),
            "c3": abs(6 * c3 - (t("bbb") + t("ggg") + 3 * t("bgg") + 6 * t("abg"))),
            "c4": abs(6 * c4 - dec4)}


#: name -> (residual function (stacked panel, its letter matrices) -> {key:
#: residual per state}, tolerance on the panel maximum); selftest prints in
#: this order
PANEL_IDENTITIES = {
    "sign_relation": (_sign_relation, CHECK_TOL),
    "gamma3_formula": (_gamma3_formula, CHECK_TOL),
    "i004_identity": (_i004_identity, CHECK_TOL),
    "product_relation": (_product_relation, CHECK_TOL),
    "multidegree_relations": (_multidegree_relations, CHECK_TOL),
    "casimir_decomposition": (_casimir_decomposition, 1e-8),
}


def panel_violations(seed: int = DEFAULT_PANEL_SEED,
                     panel_size: int = DEFAULT_PANEL_SIZE
                     ) -> dict[str, dict[str, float]]:
    """Max residual per key of each identity in PANEL_IDENTITIES over one
    seeded panel, as {name: {key: max}}; the panel is drawn and its letter
    matrices and word products are formed once, as stacks."""
    panel = random_panel(_args.seed(seed), _args.integer(panel_size, "panel_size", 1))
    mats = _letter_matrices(panel)
    return {name: {key: float(np.max(r))
                   for key, r in residuals(panel, mats).items()}
            for name, (residuals, _) in PANEL_IDENTITIES.items()}


# -- ranks and independence -----------------------------------------------------

def _product_candidates(degree: int, seed: int) -> list[tuple[str, ...]]:
    """Multisets of lower-degree non-kernel words with total degree equal to
    degree (products of at least two invariants), as sorted tuples, sorted;
    factors are picked in non-decreasing pool position, so each comes once."""
    pool = sorted(w.letters for d in range(1, degree)
                  for w in nonkernel_words(d, seed))

    def grow(start, left):
        if not left:
            return [()]
        return [(w,) + rest for i, w in enumerate(pool[start:], start)
                if len(w) <= left for rest in grow(i, left - len(w))]

    return sorted(grow(0, degree))


def _numerical_rank(matrix: np.ndarray) -> int:
    sing = np.linalg.svd(matrix, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0:
        return 0
    return int((sing > max(matrix.shape) * RANK_EPS * sing[0]).sum())


def rank_at_degree(degree: int, include_products: bool,
                   seed: int = DEFAULT_PANEL_SEED) -> int:
    """Numerical rank of the evaluation matrix of all degree-d candidate
    invariants, d in 1..6, on twice as many seeded random states as columns.  The
    candidates are the complex traces of the non-kernel words and, when
    asked, the lower-degree products.

    Degree 1 gives 0: every degree-1 word is in the kernel, so there are no
    candidates.  Degrees 2 and 3 give 3 and 4, the full invariant counts.
    At degree 4 the candidates span only 14 of the 15 invariant dimensions:
    the trace identities tr(a a b b) = (1/6) tr(a a) tr(b b) and its
    alpha/gamma analogue make two of the products redundant, and the missing
    direction (correlation_quartic_ff) is not a trace word.  See
    degree4_completion_rank for the restored count.  Traces through degree 4
    are real; with products, degree 5 gives 23 (of 25) and degree 6 gives 70
    (of 90); each conjugate pair of complex words (agbgg/aggbg at degree 5,
    five pairs at degree 6) spans its real and its imaginary part."""
    seed, degree = _args.seed(seed), _args.integer(degree, "degree", 1, 6)
    candidates: list[tuple[str, ...]] = [(w.letters,) for w in nonkernel_words(degree, seed)]
    if include_products:
        candidates += _product_candidates(degree, seed)
    if not candidates:
        return 0
    return _numerical_rank(_evaluation_matrix(candidates, seed))


def _evaluation_matrix(candidates, seed: int, extra=()) -> np.ndarray:
    """Values of the candidates, then of the state functions in extra
    (columns), on twice as many seeded states as columns: row i is the state
    random_density(seed + 1000 + i).  A one-word candidate gives its complex
    trace: over C, tr W and its conjugate tr rev(W) span what Re tr W and
    Im tr W span.  A product gives the product of its factors' real parts:
    every factor has degree <= 4, where traces are real, and a complex
    product over the stack would round unlike the one-state product."""
    panel = random_panel(seed + 1000, 2 * (len(candidates) + len(extra)))
    mats = _letter_matrices(panel)
    words = {w for cand in candidates for w in cand}
    values = {w: _eval_on(mats, w) for w in words}
    columns = [values[cand[0]] if len(cand) == 1
               else np.prod([values[w].real for w in cand], axis=0)
               for cand in candidates]
    return np.column_stack(columns + [f(panel) for f in extra])


def correlation_quartic_ff(state: QubitQutritState) -> float | np.ndarray:
    """f_apc f_cbq G_ab G_pq = -(1/8) sum_ij tr([M_i, M_j]^2), G = C^T C: the
    f-contracted correlation quartic.  This degree-(0,0,4) invariant lies
    outside the span of trace words and their products: together with them
    it completes the 15-dimensional space of degree-4 invariants (see
    rank_at_degree).  A stacked state gives one value per state."""
    return _su3_contractions(state)["ff"]


def degree4_completion_rank(seed: int = DEFAULT_PANEL_SEED) -> int:
    """Rank of the degree-4 evaluation matrix when the f-contracted
    correlation quartic is adjoined to the trace words and products.

    Trace words plus products span a 14-dimensional subspace of the
    15-dimensional degree-4 invariant space; adjoining the quartic restores
    the full count, so this returns 15."""
    seed = _args.seed(seed)
    candidates = [(w.letters,) for w in nonkernel_words(4, seed)]
    candidates += _product_candidates(4, seed)
    return _numerical_rank(_evaluation_matrix(candidates, seed,
                                               extra=(correlation_quartic_ff,)))


def trace_jacobian(words, point: np.ndarray) -> np.ndarray:
    """Exact (35, n) Jacobian of the real traces of one word (n = 1) or n words at
    point = (a, b, C row by row).  Letter g is sum x_k G_k, G_k = SU6_GENERATORS[k],
    over k in states.LETTER_SLICES[g], so d tr(L_1...L_d)/dx_k sums tr(G_k L_{i+1}...
    L_d L_1...L_{i-1}) over the positions i of that letter (I6 if that is empty)."""
    words = [_letters(w) for w in _one_or_many(words)[0]]
    x = _args.real_array(point, "point")
    if x.shape != (35,):
        raise ValueError(f"point must be a vector of 35 coordinates, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    mats = _letter_matrices(QubitQutritState._of(x))
    mats[""] = np.eye(6)
    rot = np.zeros((len(LETTERS), len(words), 6, 6), dtype=complex)
    for j, w in enumerate(words):
        for i, letter in enumerate(w):
            rot[LETTERS.index(letter), j] += _product(mats, w[i + 1:] + w[:i])
    return np.concatenate([np.einsum("kuv,jvu->kj", su_algebra.SU6_GENERATORS[s], r).real
                           for s, r in zip(states.LETTER_SLICES, rot)])


def jacobian_rank(words, point: np.ndarray) -> int:
    return _numerical_rank(trace_jacobian(words, point))


def independence_evidence(degree_cap: int, seed: int = DEFAULT_PANEL_SEED) -> int:
    """Max observed Jacobian rank of all non-kernel words of degree <=
    degree_cap at three seeded random points (parameters uniform in +-0.3).

    The returned rank can never exceed 24, the dimension of the quotient of
    the su(6) adjoint orbit space by the local action (35 - 11)."""
    seed = _args.seed(seed)
    degree_cap = _args.integer(degree_cap, "degree_cap", 1, MAX_WORD_DEGREE)
    words = [w for d in range(1, degree_cap + 1) for w in nonkernel_words(d, seed)]
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(3):
        pt = rng.uniform(-JACOBIAN_PARAM_SCALE, JACOBIAN_PARAM_SCALE, 35)
        best = max(best, jacobian_rank(words, pt))
    return best


def listed_invariants_through_degree4() -> tuple[TraceWord, ...]:
    """The 3 + 4 + 8 invariants that are not products of lower-order ones."""
    return tuple(TraceWord(w) for w in
                 LISTED_DEGREE2 + LISTED_DEGREE3 + LISTED_DEGREE4)


# -- invariance under conjugation -------------------------------------------------

_CASIMIR_SELECTORS = ("C2", "C3", "C4", "C5", "C6")


def _selector_values(selectors, state: QubitQutritState) -> list:
    """Each selector's value on the state, a Casimir C_k as casimirs_from_traces
    gives it and a trace word as eval_trace does: the words as one
    eval_trace over one set of letters, the Casimirs from one
    casimirs_from_traces, so each value has the bits of its own call."""
    casimir = [isinstance(x, str) and x in _CASIMIR_SELECTORS for x in selectors]
    for x, is_casimir in zip(selectors, casimir):
        if not is_casimir and not isinstance(x, (str, TraceWord)):
            raise ValueError(f"unknown invariant selector {x!r}")
    words = [x for x, is_casimir in zip(selectors, casimir) if not is_casimir]
    traces = iter(eval_trace(words, state) if words else ())
    normalized = (casimir_positivity.casimirs_from_traces(state).normalized
                  if any(casimir) else ())
    return [normalized[int(x[1]) - 2] if is_casimir else next(traces)
            for x, is_casimir in zip(selectors, casimir)]


def invariance_test(selector, trials: int, seed: int = DEFAULT_PANEL_SEED,
                    unitary: str | None = None) -> float:
    """Max |value before - value after| over seeded random conjugations:
    trial i conjugates random_density(seed + 7000 + i) by the unitary of seed
    seed + 9000 + i, all trials as one stack.  selector is one selector or a
    sequence of them; the trials are drawn and conjugated once, the
    selectors are evaluated together on each stack, and the maximum over
    all is returned (exactly the maximum of the one-selector calls).

    Trace words are conjugated by local unitaries k1 x k2, Casimir selectors
    by global SU(6) unitaries, so a sequence must be of one kind; pass
    unitary="local"/"global" to override (e.g. a trace word under a global
    unitary is the negative control)."""
    seed, selectors = _args.seed(seed), _one_or_many(selector)[0]
    if not selectors:
        raise ValueError("no invariant selector given")
    trials = _args.integer(trials, "trials", 1)
    if unitary is None:
        kinds = {isinstance(x, str) and x in _CASIMIR_SELECTORS for x in selectors}
        if len(kinds) > 1:
            raise ValueError("selectors mix Casimir selectors and trace words; "
                             "pass unitary='local' or 'global'")
        unitary = "global" if kinds.pop() else "local"
    if unitary not in ("local", "global"):
        raise ValueError(
            f"unitary must be None, 'local' or 'global', got {unitary!r}")
    s = random_panel(seed + 7000, trials)
    u = states.random_unitaries(range(seed + 9000, seed + 9000 + trials),
                                local=unitary == "local")
    after = _selector_values(selectors, states.conjugate(s, u))
    before = _selector_values(selectors, s)
    return max(float(np.abs(x - y).max()) for x, y in zip(after, before))
