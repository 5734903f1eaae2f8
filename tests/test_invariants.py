"""Trace-word enumeration, kernel, exchange identities, ranks, independence."""

import itertools
import re

import numpy as np
import pytest

from qqinv import local_invariants as li
from qqinv import states
from qqinv.local_invariants import (canonical_form, correlation_quartic_ff,
                                    degree4_completion_rank, enumerate_words,
                                    eval_trace, eval_trace_complex,
                                    independence_evidence, invariance_test,
                                    jacobian_rank, kernel_at_degree,
                                    listed_invariants_through_degree4,
                                    panel_violations, rank_at_degree,
                                    trace_word, TraceWord)
from qqinv.states import QubitQutritState, letter_matrices, random_density
from qqinv.su_algebra import structure_constants

DEGREE4_WORDS = ["aaaa", "aaab", "aaag", "aabb", "aabg", "aagg", "abbb",
                 "abbg", "abgg", "agag", "agbg", "aggg", "bbbb", "bbbg",
                 "bbgg", "bgbg", "bggg", "gggg"]
KERNEL4 = {"aaab", "abbb", "aaag", "bbbg", "aabg"}


def rand_state(seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return QubitQutritState(rng.uniform(-scale, scale, 3),
                            rng.uniform(-scale, scale, 8),
                            rng.uniform(-scale, scale, (3, 8)))


def state_at(x):
    """The state of the 35 coordinates x = (a, b, C row by row)."""
    return QubitQutritState(x[:3], x[3:11], x[11:])


# -- enumeration and canonicalization ---------------------------------------------

def test_enumerate_counts():
    assert [len(enumerate_words(d)) for d in (1, 2, 3, 4)] == [3, 6, 10, 18]


def test_enumerate_degree1_and_2():
    assert [w.letters for w in enumerate_words(1)] == ["a", "b", "g"]
    assert [w.letters for w in enumerate_words(2)] == ["aa", "ab", "ag",
                                                       "bb", "bg", "gg"]


def test_enumerate_degree4_exact_list():
    assert [w.letters for w in enumerate_words(4)] == DEGREE4_WORDS


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError, match="1..8"):
        enumerate_words(0)
    with pytest.raises(ValueError, match="1..8"):
        enumerate_words(9)


#: every public function that takes a seed, called with the seed it is given
SEED_CALLS = {
    "random_panel_seed": lambda v: li.random_panel(v, 3),
    "kernel_at_degree_seed": lambda v: kernel_at_degree(4, v),
    "nonkernel_words_seed": lambda v: li.nonkernel_words(2, v),
    "panel_violations_seed": lambda v: panel_violations(v, 3),
    "rank_at_degree_seed": lambda v: rank_at_degree(2, False, v),
    "degree4_completion_rank_seed": lambda v: degree4_completion_rank(v),
    "independence_evidence_seed": lambda v: independence_evidence(2, v),
    "invariance_test_seed": lambda v: invariance_test("aa", 3, v),
}


@pytest.mark.parametrize("value", [True, 2.5, None], ids=["True", "2.5", "None"])
@pytest.mark.parametrize("call, name", [
    (lambda v: li.random_panel(3, v), "size"),
    (lambda v: enumerate_words(degree=v), "degree"),
    (lambda v: li.nonkernel_words(v, li.DEFAULT_PANEL_SEED), "degree"),
    (lambda v: kernel_at_degree(v), "degree"),
    (lambda v: kernel_at_degree(2, panel_size=v), "panel_size"),
    (lambda v: panel_violations(panel_size=v), "panel_size"),
    (lambda v: rank_at_degree(v, False), "degree"),
    (lambda v: independence_evidence(v), "degree_cap"),
    (lambda v: invariance_test("aa", v), "trials"),
] + [(call, "seed") for call in SEED_CALLS.values()],
    ids=["random_panel", "enumerate_words", "nonkernel_words", "kernel_at_degree",
         "kernel_panel_size", "panel_violations", "rank_at_degree",
         "independence_evidence", "invariance_test", *SEED_CALLS])
def test_integer_arguments_reject_bools_floats_and_none(call, name, value):
    # True was read as 1 (a one-state panel, the degree-1 words, one trial)
    # and 2.5 failed inside range; the cached entries of 1, made by calls of
    # the same form (whose cache keys True would equal), must not serve True
    enumerate_words(degree=1), li.nonkernel_words(1, li.DEFAULT_PANEL_SEED)
    li.nonkernel_words(2, 1)
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, "
                                        rf"got {re.escape(repr(value))}$"):
        call(value)


def test_integer_arguments_take_numpy_integers():
    assert enumerate_words(np.int64(3)) == enumerate_words(3)
    assert li.nonkernel_words(np.int32(2)) == li.nonkernel_words(2)
    assert np.array_equal(li.random_panel(3, np.int64(4)).x, li.random_panel(3, 4).x)
    assert kernel_at_degree(np.int8(4)).words == kernel_at_degree(4).words
    assert np.array_equal(li.random_panel(np.int64(3), 4).x, li.random_panel(3, 4).x)
    assert invariance_test("aa", 2, np.int64(5)) == invariance_test("aa", 2, 5)


@pytest.mark.parametrize("call", SEED_CALLS.values(), ids=SEED_CALLS.keys())
def test_seed_arguments_reject_negatives(call):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        call(-1)


def test_canonical_form_moves():
    assert canonical_form("ba") == "ab"          # commuting swap
    assert canonical_form("gab") == "abg"        # rotation + swap
    assert canonical_form("gagb") == "agbg"      # rotation only
    assert canonical_form("ggba") == "abgg"
    with pytest.raises(ValueError):
        canonical_form("axg")


def _closure(word):
    """The class of a word under cyclic rotation and adjacent a<->b swaps,
    by exhaustive search."""
    seen, stack = {word}, [word]
    while stack:
        w = stack.pop()
        moves = [w[r:] + w[:r] for r in range(1, len(w))]
        moves += [w[:i] + w[i + 1] + w[i] + w[i + 2:] for i in range(len(w) - 1)
                  if {w[i], w[i + 1]} == {"a", "b"}]
        for m in moves:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def test_canonical_form_is_the_class_minimum_through_degree8():
    counts = []
    for degree in range(1, 9):
        left = {"".join(t) for t in itertools.product("abg", repeat=degree)}
        minima = []
        while left:
            members = _closure(next(iter(left)))
            left -= members
            minima.append(min(members))
            assert {canonical_form(w) for w in members} == {minima[-1]}
        assert [w.letters for w in enumerate_words(degree)] == sorted(minima)
        counts.append(len(minima))
    assert counts == [3, 6, 10, 18, 31, 65, 129, 292]


@pytest.mark.parametrize("letters", ["", "axg"])
def test_trace_word_rejects_bad_letters(letters):
    with pytest.raises(ValueError, match="nonempty over"):
        TraceWord(letters)


def test_trace_word_requires_canonical_letters():
    # "ba" and "ab" are one class: only the canonical form names it, so a
    # TraceWord compares equal to the kernel's words exactly when it should
    with pytest.raises(ValueError, match="canonical form is 'ab'"):
        TraceWord("ba")
    with pytest.raises(ValueError, match="canonical form is 'abgg'"):
        TraceWord("gabg")
    assert trace_word("ba") in kernel_at_degree(2).words
    assert all(TraceWord(w.letters) == w for w in enumerate_words(5))


def test_multidegree():
    w = trace_word("gabg")
    assert w.multidegree == (1, 1, 2)
    assert sum(w.multidegree) == 4


def test_canonicalization_soundness():
    # every member of a closure class evaluates to the same trace
    rng = np.random.default_rng(2)
    panel = [rand_state(i) for i in range(20)]
    for _ in range(50):
        length = int(rng.integers(2, 7))
        raw = "".join(rng.choice(list("abg"), size=length))
        canon = canonical_form(raw)
        for s in panel:
            mats = li._letter_matrices(s)
            assert abs(li._eval_on(mats, raw) - li._eval_on(mats, canon)) < 1e-10


# -- evaluation ----------------------------------------------------------------------

def test_eval_alpha_squared():
    s = QubitQutritState([1, 0, 0], np.zeros(8), np.zeros((3, 8)))
    assert abs(eval_trace("aa", s) - 6.0) < 1e-12


def test_eval_alpha_beta_vanishes():
    for seed in range(100):
        assert abs(eval_trace("ab", rand_state(seed))) < 1e-12


def test_product_trace_identity():
    for seed in range(100):
        s = rand_state(seed)
        lhs = eval_trace("aabb", s)
        rhs = eval_trace("aa", s) * eval_trace("bb", s) / 6.0
        assert abs(lhs - rhs) < 1e-12


def test_eval_flags_complex_traces():
    s = rand_state(1)
    val = eval_trace_complex("agbgg", s)
    assert abs(val.imag) > 1e-6  # genuinely complex at degree 5
    with pytest.raises(ValueError, match="imaginary"):
        eval_trace("agbgg", s)


@pytest.mark.parametrize("state", [rand_state(2), states.random_densities(range(5))],
                         ids=["one", "stack"])
def test_eval_trace_takes_a_list_of_words(state):
    words = ["aa", trace_word("bb"), "gggg"]
    values = eval_trace(words, state)
    assert isinstance(values, list) and len(values) == 3
    for w, v in zip(words, values):
        assert np.array_equal(v, eval_trace(w, state))
    assert np.array_equal(values[0], eval_trace_complex(words, state)[0].real)
    assert eval_trace([], state) == []


@pytest.mark.parametrize("word", ["agbgg", trace_word("agbgg")], ids=["str", "TraceWord"])
def test_complex_word_in_a_list_raises_as_it_does_alone(word):
    s = rand_state(1)
    with pytest.raises(ValueError) as alone:
        eval_trace(word, s)
    assert str(alone.value).startswith("trace of word 'agbgg' has an imaginary part")
    with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
        eval_trace(["aa", word, "bb"], s)


@pytest.mark.parametrize("field,index,value", [("a", 2, np.inf), ("C", (1, 4), np.nan),
                                               ("b", 7, 1.7e308)])
def test_non_finite_coordinates_give_non_finite_traces_quietly(field, index, value):
    # eval_trace_complex warned "invalid value encountered in matmul" on an
    # infinite coordinate, which this suite makes an error
    s = QubitQutritState.zero()
    getattr(s, field)[index] = value
    words = ["aa", "bb", "gg", "abg"]
    assert not np.isfinite(eval_trace_complex(words, s)).all()
    stack = QubitQutritState(*(np.stack([np.zeros_like(x), x]) for x in (s.a, s.b, s.C)))
    traces = np.array([eval_trace_complex(w, stack) for w in words])
    assert np.isfinite(traces[:, 0]).all() and not np.isfinite(traces[:, 1]).all()


# -- kernel ---------------------------------------------------------------------------

def left_to_right_trace(word, state):
    """Reference: the trace of the letter matrices multiplied left to right."""
    mats = dict(zip("abg", letter_matrices(state)))
    m = mats[word[0]]
    for ch in word[1:]:
        m = m @ mats[ch]
    return complex(np.trace(m))


def test_word_sequence_matches_one_word_calls():
    s = rand_state(4)
    words = [w for degree in range(1, 7) for w in enumerate_words(degree)]
    words += ["gba", "ab"]  # non-canonical spellings are canonicalized
    assert (eval_trace_complex(words, s)
            == [eval_trace_complex(w, s) for w in words])


def test_stacked_trace_words_match_single_states():
    panel = li.random_panel(900, 25)
    for degree in range(1, 7):
        for w in enumerate_words(degree):
            stacked = eval_trace_complex(w, panel)
            for i in range(25):
                s = random_density(900 + i)
                assert stacked[i] == eval_trace_complex(w, s)
                assert stacked[i] == left_to_right_trace(w.letters, s)


def kernel_words_reference(degree, seed, size):
    """Reference: the kernel by a loop over the panel states, one at a time."""
    panel = [random_density(seed + i) for i in range(size)]
    return tuple(w for w in enumerate_words(degree)
                 if max(abs(eval_trace_complex(w, s)) for s in panel) < li.KERNEL_TOL)


@pytest.mark.parametrize("seed,size", [(li.DEFAULT_PANEL_SEED, 40), (3, 7)])
def test_kernel_words_match_per_state_loop(seed, size):
    for degree in range(1, 6):
        assert kernel_at_degree(degree, seed, size).words == \
            kernel_words_reference(degree, seed, size)


def evaluation_matrix_reference(candidates, seed, extra=()):
    """Reference: the rank evaluation matrix built one state per row, a
    word's complex trace or a product of real traces per candidate."""
    rows = []
    for i in range(2 * (len(candidates) + len(extra))):
        s = random_density(seed + 1000 + i)
        rows.append([eval_trace_complex(cand[0], s) if len(cand) == 1
                     else np.prod([eval_trace_complex(w, s).real for w in cand])
                     for cand in candidates]
                    + [f(s) for f in extra])
    return np.array(rows)


@pytest.mark.parametrize("seed", [li.DEFAULT_PANEL_SEED, 11])
def test_evaluation_matrix_matches_per_state_loop(seed):
    candidates = [(w.letters,) for w in li.nonkernel_words(4, seed)]
    candidates += li._product_candidates(4, seed)
    extra = (correlation_quartic_ff,)
    assert np.array_equal(li._evaluation_matrix(candidates, seed, extra),
                          evaluation_matrix_reference(candidates, seed, extra))


def test_evaluation_matrix_complex_columns_match_per_state_loop():
    seed = li.DEFAULT_PANEL_SEED
    candidates = [(w.letters,) for w in li.nonkernel_words(5, seed)]
    matrix = li._evaluation_matrix(candidates, seed)
    assert matrix.shape == (2 * len(candidates), len(candidates))
    assert matrix.tobytes() == evaluation_matrix_reference(candidates, seed).tobytes()
    # the one conjugate pair of degree 5: complex traces, one column each,
    # conjugate up to rounding
    column = {cand[0]: j for j, cand in enumerate(candidates)}
    agbgg, aggbg = matrix[:, column["agbgg"]], matrix[:, column["aggbg"]]
    assert np.abs(aggbg - agbgg.conj()).max() < 1e-14
    assert np.abs(agbgg.imag).min() > 0


def test_trace_jacobian_matches_central_differences():
    # the reference is a central difference on eval_trace, one coordinate
    # at a time; its truncation error at step 1e-5 is far below 1e-8
    words = listed_invariants_through_degree4()
    point = np.random.default_rng(5).uniform(-0.3, 0.3, 35)
    J = li.trace_jacobian(words, point)
    assert J.shape == (35, len(words)) and J.dtype == float
    h = 1e-5
    for k in (0, 7, 20, 34):
        up, dn = point.copy(), point.copy()
        up[k] += h
        dn[k] -= h
        for j, w in enumerate(words):
            col = (eval_trace(w, state_at(up)) - eval_trace(w, state_at(dn))) / (2 * h)
            assert abs(J[k, j] - col) < 1e-8


def test_trace_jacobian_of_the_squares_in_closed_form():
    # tr(alpha^2) = 6|a|^2, tr(beta^2) = 4|b|^2, tr(gamma^2) = 4|C|^2, and
    # each depends on its own block of coordinates only; the letters
    # themselves are traceless, so the degree-1 words have zero gradient
    point = np.random.default_rng(11).uniform(-0.3, 0.3, 35)
    J = li.trace_jacobian(["a", "b", "g", "aa", "bb", "gg"], point)
    expect = np.zeros((35, 6))
    expect[:3, 3] = 12 * point[:3]
    expect[3:11, 4] = 8 * point[3:11]
    expect[11:, 5] = 8 * point[11:]
    assert np.abs(J - expect).max() < 1e-14


def test_trace_jacobian_null_space_is_clean_through_degree5():
    # the words of degree <= 5 have rank 24 = 35 - 11; the exact Jacobian
    # puts the 25th singular value at rounding level (about 3e-17 of the
    # first), a step-1e-5 central difference puts it near 3e-12
    words = [w for d in range(1, 6) for w in li.nonkernel_words(d)]
    rng = np.random.default_rng(20260)
    for _ in range(3):
        sing = np.linalg.svd(li.trace_jacobian(words, rng.uniform(-0.3, 0.3, 35)),
                             compute_uv=False)
        assert sing[23] / sing[0] > 1e-5
        assert sing[24] / sing[0] < 1e-14


def test_trace_jacobian_at_an_integer_point():
    point = np.arange(35) % 3 - 1
    words = ["aa", "gg", "abg", "agbg"]
    assert np.array_equal(li.trace_jacobian(words, point),
                          li.trace_jacobian(words, point.astype(float)))


def test_trace_jacobian_takes_one_word_as_a_list_of_one():
    p = np.random.default_rng(4).uniform(-0.3, 0.3, 35)
    one = li.trace_jacobian("ggg", p)
    assert one.shape == (35, 1)
    assert np.array_equal(one, li.trace_jacobian(["ggg"], p))
    assert np.array_equal(li.trace_jacobian(trace_word("aa"), p),
                          li.trace_jacobian(["aa"], p))
    assert jacobian_rank("ggg", p) == jacobian_rank(["ggg"], p) == 1
    assert jacobian_rank(trace_word("agag"), p) == 1


@pytest.mark.parametrize("word", ["ax", ""])
@pytest.mark.parametrize("entry", [li.trace_jacobian, jacobian_rank])
def test_jacobian_rejects_bad_words(entry, word):
    # each word is read as eval_trace reads it, so a letter outside "abg" and
    # the empty word raise ValueError (once KeyError and RecursionError)
    with pytest.raises(ValueError, match="nonempty over"):
        entry(["aa", word], np.zeros(35))


@pytest.mark.parametrize("point,message", [
    pytest.param(np.zeros(36), "35 coordinates.*\\(36,\\)", id="length-36"),
    pytest.param(np.zeros((5, 7)), "35 coordinates.*\\(5, 7\\)", id="shape-5x7"),
    pytest.param(np.zeros(35, dtype=complex), "field 'point' has dtype complex128",
                 id="complex"),
    pytest.param(np.full(35, np.nan), "point has non-finite", id="nan"),
    pytest.param(np.r_[np.zeros(34), np.inf], "point has non-finite", id="inf"),
])
@pytest.mark.parametrize("entry", [li.trace_jacobian, jacobian_rank])
def test_jacobian_rejects_bad_points(entry, point, message):
    with pytest.raises(ValueError, match=message):
        entry(["aa", "gg"], point)


def test_kernel_degree4():
    result = kernel_at_degree(4)
    assert {w.letters for w in result.words} == KERNEL4
    assert result.seed == li.DEFAULT_PANEL_SEED


def test_kernel_degree2_and_1():
    assert {w.letters for w in kernel_at_degree(2).words} == {"ab", "ag", "bg"}
    assert {w.letters for w in kernel_at_degree(1).words} == {"a", "b", "g"}


def test_kernel_rejects_high_degree():
    with pytest.raises(ValueError, match="^degree must be in 1..6, got 7$"):
        kernel_at_degree(7)


def test_kernel_words_vanish_algebraically():
    # alpha^2 is a multiple of the identity, so these traces are exactly zero
    for seed in range(10):
        s = rand_state(seed + 40)
        for w in KERNEL4:
            assert abs(eval_trace_complex(w, s)) < 1e-13


# -- identity checks ------------------------------------------------------------------

def test_sign_relation():
    assert panel_violations()["sign_relation"]["sign_relation"] < li.CHECK_TOL
    s = rand_state(3)
    assert abs(eval_trace("abgg", s) + eval_trace("agbg", s)) < 1e-12
    noC = QubitQutritState(s.a, s.b, np.zeros((3, 8)))
    assert abs(eval_trace("abgg", noC)) < 1e-13
    assert abs(eval_trace("agbg", noC)) < 1e-13


def test_gamma3_formula():
    assert panel_violations()["gamma3_formula"]["gamma3_formula"] < li.CHECK_TOL
    zero = QubitQutritState.zero()
    assert abs(eval_trace("ggg", zero)) == 0.0
    # rank-one correlation matrix kills both routes
    u, v = np.arange(1, 4.0), np.arange(1, 9.0)
    s = QubitQutritState(np.zeros(3), np.zeros(8), np.outer(u, v) / 20)
    assert abs(eval_trace("ggg", s)) < 1e-12


def test_i004_identity():
    assert panel_violations()["i004_identity"]["i004_identity"] < li.CHECK_TOL
    sc = structure_constants("su3-gellmann")
    C = np.zeros((3, 8))
    C[0, 2] = 1.0  # single correlation entry
    G = C.T @ C
    lhs = np.einsum("abc,cpq,ab,pq->", sc.d, sc.d, G, G)
    ff = np.einsum("apc,cbq,ab,pq->", sc.f, sc.f, G, G)
    rhs = 2 / 3 * ff - (np.trace(G) ** 2 - 2 * np.trace(G @ G)) / 3
    assert abs(lhs - rhs) < 1e-12
    s = QubitQutritState(np.zeros(3), np.zeros(8), C)
    assert abs(li._su3_contractions(s)["dd"] - lhs) < 1e-14
    assert abs(correlation_quartic_ff(s) - ff) < 1e-14


def dense_su3_contractions(s):
    """Reference: the su(3) contractions of the exchange identities as dense
    einsums over every index tuple of eps, f and d."""
    sc = structure_constants("su3-gellmann")
    eps = np.zeros((3, 3, 3))
    for p in itertools.permutations(range(3)):
        i, j, k = p
        eps[p] = (j - i) * (k - i) * (k - j) / 2
    f, d = sc.f, sc.d
    G = np.swapaxes(s.C, -1, -2) @ s.C
    return {
        "gamma3": -4.0 * np.einsum("ijk,abc,...ia,...jb,...kc->...",
                                   eps, f, s.C, s.C, s.C),
        "ff": np.einsum("apc,cbq,...ab,...pq->...", f, f, G, G),
        "dd": np.einsum("abc,cpq,...ab,...pq->...", d, d, G, G),
        "bbgg": np.einsum("abk,kcd,...a,...b,...cd->...", d, d, s.b, s.b, G),
        "bgbg": np.einsum("abk,kcd,...a,...c,...bd->...", d, d, s.b, s.b, G),
    }


@pytest.mark.parametrize("seed,size", [(li.DEFAULT_PANEL_SEED, 200), (7, 60)])
def test_su3_trace_forms_match_dense_contractions(seed, size):
    panel = li.random_panel(seed, size)
    traces = li._su3_contractions(panel)
    dense = dense_su3_contractions(panel)
    assert set(traces) == set(dense)
    for key, ref in dense.items():
        assert ref.shape == (size,)
        assert np.all(np.abs(traces[key] - ref)
                      <= 1e-14 * np.maximum(1.0, np.abs(ref))), key
    assert np.array_equal(correlation_quartic_ff(panel), traces["ff"])


def test_panel_violations_cover_the_registry():
    report = panel_violations(5, 7)
    assert list(report) == list(li.PANEL_IDENTITIES)
    assert {name: set(worst) for name, worst in report.items()} == {
        "sign_relation": {"sign_relation"},
        "gamma3_formula": {"gamma3_formula"},
        "i004_identity": {"i004_identity"},
        "product_relation": {"product_relation"},
        "multidegree_relations": {"aagg_agag", "aagg_product", "bbgg_product",
                                  "bbgg_bgbg"},
        "casimir_decomposition": {"c2", "c3", "c4"},
    }


@pytest.mark.parametrize("seed,size", [(li.DEFAULT_PANEL_SEED, 60), (7, 12)])
def test_panel_violations_form_su3_contractions_once(monkeypatch, seed, size):
    # the reference evaluates each identity on its own letter matrices, so
    # each forms its own contractions; sharing them must not move a bit
    panel = li.random_panel(seed, size)
    reference = {name: {key: float(np.max(r)) for key, r in
                        residuals(panel, li._letter_matrices(panel)).items()}
                 for name, (residuals, _) in li.PANEL_IDENTITIES.items()}
    calls = []
    contractions = li._su3_contractions
    monkeypatch.setattr(li, "_su3_contractions",
                        lambda s: calls.append(1) or contractions(s))
    assert panel_violations(seed, size) == reference
    assert len(calls) == 1
    panel_violations(seed, size)
    assert len(calls) == 2


def test_random_panel_rejects_empty():
    for size in (0, -3):
        with pytest.raises(ValueError, match=rf"^size must be >= 1, got {size}$"):
            li.random_panel(5, size)


fresh_draw = states.random_densities


def same_bytes(state, reference):
    return all(getattr(state, f).tobytes() == getattr(reference, f).tobytes()
               for f in "abC")


@pytest.fixture
def empty_store(monkeypatch):
    """An empty panel store for one test, with the seed ranges it draws."""
    drawn = []
    monkeypatch.setattr(li, "_PANELS", {})
    monkeypatch.setattr(states, "random_densities",
                        lambda seeds: drawn.append(seeds) or fresh_draw(seeds))
    return drawn


@pytest.mark.parametrize("sizes", [(6, 40), (40, 6), (6, 40, 6, 40)])
def test_panel_store_prefixes_and_extensions_are_fresh_draws(empty_store, sizes):
    start = 1000 + li.DEFAULT_PANEL_SEED
    for size in sizes:
        fresh = fresh_draw(range(start, start + size))
        assert same_bytes(li.random_panel(start, size), fresh)
    # the store drew each state once
    assert [x for r in empty_store for x in r] == list(range(start, start + 40))


def test_panel_store_arrays_are_read_only(empty_store):
    li.random_panel(3, 5)
    panel = li.random_panel(3, 9)
    assert li._PANELS[3].shape == (9, 35)
    for stored in (panel.x, panel.a, panel.b, panel.C, li._PANELS[3]):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0
    # a state conjugated from the panel is the caller's own
    u = states.random_unitaries(range(2), local=True)
    states.conjugate(li.random_panel(3, 2), u).a[0] = 1.0


def test_panel_store_stays_within_its_bound(empty_store, monkeypatch):
    monkeypatch.setattr(li, "_PANEL_STATES", 20)
    for start in range(40):
        li.random_panel(start, 1 + start % 5)
        assert len(li._PANELS) <= li._PANEL_STARTS
        assert sum(len(p) for p in li._PANELS.values()) <= 20
    # the most recently used starts stay
    assert list(li._PANELS) == list(range(40 - len(li._PANELS), 40))
    # a panel above the state bound is kept alone, as one prefix source
    assert same_bytes(li.random_panel(7, 21), fresh_draw(range(7, 28)))
    assert list(li._PANELS) == [7]
    assert same_bytes(li.random_panel(7, 12), fresh_draw(range(7, 19)))
    assert empty_store[-1] == range(7, 28)


def test_multidegree_relations():
    report = panel_violations()["multidegree_relations"]
    assert set(report) == {"aagg_agag", "aagg_product", "bbgg_product",
                           "bbgg_bgbg"}
    assert max(report.values()) < 1e-9


def test_multidegree_relations_b_zero():
    s = QubitQutritState([0.1, 0.2, -0.1], np.zeros(8),
                         np.random.default_rng(4).uniform(-0.2, 0.2, (3, 8)))
    assert abs(eval_trace("bbgg", s)) < 1e-13


def test_casimir_decomposition():
    report = panel_violations()["casimir_decomposition"]
    assert set(report) == {"c2", "c3", "c4"}
    assert max(report.values()) < 1e-8


def test_casimir_decomposition_a_only():
    from qqinv.casimir_positivity import casimirs_from_traces
    s = QubitQutritState([0.2, -0.3, 0.1], np.zeros(8), np.zeros((3, 8)))
    c2 = casimirs_from_traces(s).raw[0]
    assert abs(6 * c2 - eval_trace("aa", s)) < 1e-12
    assert abs(eval_trace("aa", s) - 6 * s.a @ s.a) < 1e-12


# -- ranks ----------------------------------------------------------------------------

def test_product_candidate_counts():
    seed = li.DEFAULT_PANEL_SEED
    assert [len(li._product_candidates(d, seed)) for d in range(1, 7)] == [
        0, 0, 0, 6, 12, 59]
    for cand in li._product_candidates(6, seed):
        assert len(cand) >= 2 and list(cand) == sorted(cand)
        assert sum(map(len, cand)) == 6


def test_rank_degree2_and_3():
    assert rank_at_degree(1, include_products=False) == 0
    assert rank_at_degree(2, include_products=False) == 3
    assert rank_at_degree(3, include_products=False) == 4


def test_rank_degree3_products_change_nothing():
    # the only partitions of 3 involve degree-1 words, which all vanish;
    # degree 1 itself has neither words nor products
    assert rank_at_degree(1, include_products=True) == 0
    assert rank_at_degree(3, include_products=True) == 4


def test_rank_degree4_word_span():
    # 13 non-kernel words obey exactly one linear relation (the sign
    # relation); products add the beta^2*gamma^2 direction and the square of
    # tr(gamma^2), but two cross products are absorbed by the trace
    # identities, leaving 14 of the 15 invariant dimensions
    assert rank_at_degree(4, include_products=False) == 12
    assert rank_at_degree(4, include_products=True) == 14


def test_rank_degree5_and_6_count_imaginary_parts():
    # agbgg/aggbg at degree 5 and five such pairs at degree 6 have complex
    # conjugate traces; each pair spans its real and its imaginary part
    assert rank_at_degree(5, include_products=True) == 23
    assert rank_at_degree(6, include_products=True) == 70


def test_rank_degree4_completed_by_correlation_quartic():
    assert degree4_completion_rank() == 15


def test_correlation_quartic_outside_word_span():
    # direct witness: the f-contracted quartic is not a combination of the
    # degree-4 words and products on a generic state sample
    words = [w.letters for w in li.nonkernel_words(4)]
    products = [("aa", "bb"), ("aa", "gg"), ("bb", "gg"),
                ("aa", "aa"), ("bb", "bb"), ("gg", "gg")]
    rows, target = [], []
    for seed in range(60):
        s = random_density(seed + 4000)
        vals = {w: eval_trace(w, s) for w in set(words) | {"aa", "bb", "gg"}}
        rows.append([vals[w] for w in words]
                    + [vals[x] * vals[y] for x, y in products])
        target.append(correlation_quartic_ff(s))
    rows, target = np.array(rows), np.array(target)
    coef, *_ = np.linalg.lstsq(rows, target, rcond=None)
    residual = np.abs(rows @ coef - target).max()
    assert residual > 1e-6


def test_rank_rejects_high_degree():
    with pytest.raises(ValueError, match="^degree must be in 1..6, got 7$"):
        rank_at_degree(7, include_products=False)


# -- independence ----------------------------------------------------------------------

def test_independence_evidence_validates_cap():
    with pytest.raises(ValueError, match="1..8"):
        independence_evidence(9)


def test_independence_evidence_degree2():
    assert independence_evidence(2) == 3


def test_independence_evidence_degree4():
    rank = independence_evidence(4)
    assert rank == 15
    assert rank <= 24


def test_jacobian_rank_of_listed_invariants():
    rng = np.random.default_rng(71)
    for _ in range(3):
        pt = rng.uniform(-0.3, 0.3, 35)
        assert jacobian_rank(listed_invariants_through_degree4(), pt) == 15


def test_listed_sets_match_enumeration():
    listed = listed_invariants_through_degree4()
    assert len(listed) == 15
    nonkernel = {w.letters for d in (2, 3, 4) for w in li.nonkernel_words(d)}
    assert {w.letters for w in listed} <= nonkernel


def test_low_degree_lists_are_exactly_the_nonkernel_words():
    # degree 2: the three squared sectors; degree 3: the four invariants
    # that are not products of lower-order ones
    assert {w.letters for w in li.nonkernel_words(2)} == set(li.LISTED_DEGREE2)
    assert {w.letters for w in li.nonkernel_words(3)} == set(li.LISTED_DEGREE3)


# -- invariance -------------------------------------------------------------------------

def test_word_invariance_under_local_action():
    assert invariance_test(trace_word("gggg"), 100) < 1e-9


def test_casimir_invariance_under_global_action():
    assert invariance_test("C2", 100) < 1e-9


def test_negative_control():
    assert invariance_test("aa", 25, unitary="global") > 1e-6


def test_selector_sequence_is_the_max_of_single_calls():
    words = listed_invariants_through_degree4()
    casimirs = [f"C{k}" for k in range(2, 7)]
    for group, unitary in ((words, None), (casimirs, None),
                           (["aa", "C3", "bgg"], "global")):
        singles = [invariance_test(x, 10, 5, unitary=unitary) for x in group]
        assert invariance_test(group, 10, 5, unitary=unitary) == max(singles)


def test_selectors_are_evaluated_once_per_stack(monkeypatch):
    # each selector took its own eval_trace_complex and casimirs_from_traces
    # on both stacks: 30 trace evaluations for the 15 listed words, 10
    # Casimir passes for C2..C6
    counts = {"traces": 0, "casimirs": 0}

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(li, "eval_trace_complex",
                        counted("traces", li.eval_trace_complex))
    monkeypatch.setattr(li.casimir_positivity, "casimirs_from_traces",
                        counted("casimirs", li.casimir_positivity.casimirs_from_traces))
    invariance_test(listed_invariants_through_degree4(), 5)
    invariance_test([f"C{k}" for k in range(2, 7)], 5)
    assert counts == {"traces": 2, "casimirs": 2}


def test_invariance_rejects_mixed_or_empty_selectors():
    with pytest.raises(ValueError, match="mix Casimir selectors and trace words"):
        invariance_test(["C2", trace_word("gg")], 5)
    with pytest.raises(ValueError, match="no invariant selector"):
        invariance_test([], 5)


def test_invariance_rejects_bad_trials():
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        invariance_test("aa", 0)


def test_invariance_rejects_unknown_unitary_kind():
    # a misspelt kind must not fall through to global unitaries
    with pytest.raises(ValueError, match="'local' or 'global'"):
        invariance_test("aa", 5, unitary="lokal")
