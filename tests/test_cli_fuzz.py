"""Hostile input through the command line: every file the parsers read is a
token soup (right or wrong header literals, small integers, junk tokens, raw
bytes), and every run must end in a documented exit code, never a traceback.

Some lift contexts come from a real lossy kernelization instead, so that a
generic lift also succeeds. Integers stay small and point counts at most 12,
so no case asks for a huge instance or a slow enumeration.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from eqclus.cli import main
from eqclus.generators import gen_random
from eqclus.kernel import lossy_kernelize, save_context

LITERALS = ["ECL", "RSM", "TDM", "ASSIGN", "ECLCTX", "1", "0", "-", "+3", "007", "1e3", "0x10",
            "nan", "-0", "٣", "{", "}", "[", "]", ",", ":", '"', "null"]
BRANCHES = ["large-yes", "large-no", "dimreduce-no", "kprime-too-big", "empty-after-greedy",
            "generic", "bogus"]

token = st.one_of(st.integers(-50, 50).map(str), st.sampled_from(LITERALS), st.text(max_size=3))


@st.composite
def soup(draw, header, counts, need, values):
    """Either a file of the right shape (the header literal, header counts and
    as many body values as they ask for, give or take one) or a token soup:
    a right or wrong literal, the counts, junk tokens, cut short or spliced
    with raw bytes."""
    nums = draw(counts)
    if draw(st.booleans()):
        size = max(0, need(*nums) + draw(st.sampled_from([0, 0, 0, -1, 1])))
        words = [header] + nums + [draw(values) for _ in range(size)]
        return " ".join(map(str, words)).encode("utf-8")
    words = [draw(st.sampled_from([header, header, "ECL", "RSM", "X"]))] + list(map(str, nums))
    words += draw(st.lists(token, max_size=30))
    seps = draw(st.lists(st.sampled_from([" ", "\n", "\t", "\r\n"]), min_size=len(words),
                         max_size=len(words)))
    data = "".join(w + sep for w, sep in zip(words, seps)).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.binary(max_size=4)) + data[cut:]


@st.composite
def equal_size(draw, max_k, max_n=10):
    """(n, k) with k dividing n and n <= max_n, or n one off."""
    k = draw(st.integers(0, max_k))
    n = k * draw(st.integers(1, max_n // max(k, 1)))
    return n + draw(st.sampled_from([0, 0, 0, 0, 1, -1])), k


instance_soup = soup(
    "ECL", st.tuples(equal_size(5), st.sampled_from([0, 1, 2, -1]), st.integers(1, 3),
                     st.sampled_from([0, 1, 2, 3, -1])).map(
        lambda t: [1, t[1], t[2], t[0][0], t[0][1], t[3]]),
    lambda v, p, d, n, k, B: n * d, st.integers(-50, 50))
clustering_soup = soup("ASSIGN", equal_size(5).map(lambda nk: [1, *nk]),
                       lambda v, n, k: n, st.integers(0, 5))
hypergraph_soup = soup(
    "RSM", st.tuples(st.integers(2, 4), st.integers(0, 2), st.integers(0, 4)).map(
        lambda t: [t[0], t[0] * t[1], t[2]]),
    lambda r, n, m: r * m, st.integers(0, 8))
tdm_soup = soup("TDM", st.lists(st.integers(0, 3), min_size=2, max_size=2), lambda n, m: 3 * m,
                st.integers(0, 3))
matching_soup = soup("", st.just([]), lambda: 2, st.integers(0, 4))

small_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-50, 50), st.sampled_from(BRANCHES),
              st.floats(allow_nan=False, width=16)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["0", "1", "k", "p"]), inner,
                                            max_size=3)),
    max_leaves=12)


# verify's small-regime shapes (n, k, coordinate bound, B): s < 4B+1
SMALL_SHAPES = [(8, 2, 2, 1), (8, 4, 1, 1), (12, 3, 2, 1), (6, 3, 1, 1),
                (12, 6, 2, 1), (10, 2, 3, 2), (12, 4, 2, 1), (9, 3, 2, 1)]


@functools.cache
def kernelized(shape: int, p: int, seed: int) -> tuple[str, int, int]:
    """The context that `kernelize --mode lossy` writes for a seeded small-regime
    instance, and its kernel's point and cluster counts."""
    n, k, bound, B = SMALL_SHAPES[shape]
    kern, ctx = lossy_kernelize(gen_random(n=n, k=k, d=2, coord_bound=bound, p=p, B=B,
                                           seed=seed))
    text = io.StringIO()
    save_context(ctx, text)
    return text.getvalue(), kern.n, kern.k


@st.composite
def real_context(draw):
    """A context of a real lossy kernelization, and its kernel's point and cluster counts."""
    text, kernel_n, kernel_k = kernelized(draw(st.integers(0, len(SMALL_SHAPES) - 1)),
                                          draw(st.integers(0, 1)), draw(st.integers(0, 9)))
    return json.loads(text), kernel_n, kernel_k


@st.composite
def made_up_context(draw):
    """A context of the shape save_context writes, and the point and cluster
    counts of the kernel it implies."""
    n, k = draw(equal_size(3, 9))
    s = n // k if k and n >= k and n % k == 0 else 1
    ids = draw(st.permutations(range(max(n, 0))))
    branch = draw(st.sampled_from(BRANCHES))
    blocks = [ids[j:j + s] for j in range(0, draw(st.integers(0, k)) * s, s)]
    if branch == "large-yes":  # the optimum's clusters are the blocks
        blocks = [ids[j:j + s] for j in range(0, len(ids) // s * s, s)]
    rest = ids[sum(map(len, blocks)):]
    doc = {"format": "ECLCTX", "version": 3, "branch": branch,
           "original": {"k": k, "ids": ids}, "blocks": blocks}
    return doc, len(rest), max(k - len(blocks), 1)


@st.composite
def lift_inputs(draw):
    """A made-up context and a kernel clustering that fits it or not, or a real
    context and one that fits it; either with up to two fields replaced by junk."""
    real = draw(st.booleans())
    doc, kernel_n, kernel_k = draw(real_context() if real else made_up_context())
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc[key] = draw(small_json)
    if real or draw(st.booleans()):
        clustering = " ".join(map(str, ["ASSIGN", 1, kernel_n, kernel_k] +
                                      [1 + pos * kernel_k // max(kernel_n, 1)
                                       for pos in range(kernel_n)]))
        clustering = clustering.encode("utf-8")
    else:
        clustering = draw(clustering_soup)
    return json.dumps(doc).encode("utf-8"), clustering


context_soup = st.one_of(small_json.map(lambda d: json.dumps(d).encode("utf-8")),
                         soup("ECLCTX", st.just([]), lambda: 0, token))


def run(argv, files):
    """main(argv) in a fresh directory holding `files`: a documented exit code,
    and on failure one error line."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            for name, data in files.items():
                with open(name, "wb") as fh:
                    fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in range(5), (argv, code)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error: ", "usage error: ")), lines


fuzz = settings(max_examples=150, deadline=None, derandomize=True)


@fuzz
@given(st.sampled_from(["auto", "brute", "large", "matching"]), instance_soup, instance_soup)
def test_solve_survives_token_soup(method, inst, medians):
    run(["solve", "i.ecl", "--method", method, "--medians", "m.ecl", "-o", "s.assign"],
        {"i.ecl": inst, "m.ecl": medians})


@fuzz
@given(instance_soup, clustering_soup)
def test_eval_survives_token_soup(inst, clustering):
    run(["eval", "i.ecl", "c.assign"], {"i.ecl": inst, "c.assign": clustering})


@fuzz
@given(st.sampled_from([("reduce-rsm", hypergraph_soup), ("reduce-3dm", tdm_soup)])
       .flatmap(lambda pair: st.tuples(st.just(pair[0]), pair[1])), matching_soup)
def test_reduce_survives_token_soup(command_and_input, matching):
    command, problem = command_and_input
    run([command, "p.txt", "--matching", "m.txt", "-o", "r.ecl", "--clustering-out", "r.assign"],
        {"p.txt": problem, "m.txt": matching})


@fuzz
@given(lift_inputs() | st.tuples(context_soup, clustering_soup))
def test_lift_survives_token_soup(ctx_and_clustering):
    ctx, clustering = ctx_and_clustering
    run(["lift", "c.assign", "--ctx", "ctx.json", "-o", "l.assign"],
        {"ctx.json": ctx, "c.assign": clustering})
    run(["lift", "--ctx", "ctx.json"], {"ctx.json": ctx})
