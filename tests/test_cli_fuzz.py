"""Fuzz gate for the CLI: each of the nine verbs, called in process on
drawn tokens, valid and malformed, answers with exit 0 (or 1, from a check
that fails) or rejects its input with exit 2 and one short stderr line.
Exit 3, a traceback or an unbounded stderr line is a bug."""

import contextlib
import io
import json
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tiltwall.cli import run

VERBS = ["class", "tilt", "bg-check", "walls", "reduce", "collection-check",
         "interval", "twist", "plot"]
# the verbs whose exit code 1 reports a failed check
CHECK_VERBS = {"bg-check", "collection-check", "interval"}


def fracs(lo, hi, denominator=12):
    return st.fractions(lo, hi, max_denominator=denominator)


def rationals(bound, denominator=12):
    return fracs(-bound, bound, denominator).map(str)


def classes(components):
    return st.lists(components, min_size=4, max_size=4).map(",".join)


def named(indices):
    return st.one_of(
        st.sampled_from(["O", "point", "O^x", "T(-2)", "Omega(1)", "Omega2(2)"]),
        indices.map(lambda d: f"O({d})"))


# Text without decimal digits, in any script, and long runs of one
# character: no junk token is a number, so none can widen a walls scan.
junk = st.one_of(
    st.text(st.characters(exclude_categories=("Cs", "Nd"),
                          exclude_characters="\x00"), max_size=12),
    st.builds(lambda c, n: c * n, st.sampled_from("xé∞中 ,/(-"),
              st.integers(41, 100_000)))
# literals at and over the digit budget, and other huge or odd numbers
huge = st.one_of(
    st.sampled_from(["1e499", "-1e499", "1e-499", "1e500", "1/" + "3" * 499,
                     "9" * 600, "1e99999", "1/0", "0x10", "nan", "inf"]),
    st.builds(lambda c, n: c * n, st.sampled_from("9١"), st.integers(1, 2000)))

# The classes of a valid "@" collection: those of lines, whose mu1(E) is
# rational, and two collections reached from built-ins by right mutations
# (lines by three, beilinson4 by two) whose mu1(E) is irrational.
CUSTOM_CLASSES = [
    [["1", "-3", "9/2", "-9/2"], ["1", "-2", "2", "-4/3"],
     ["1", "-1", "1/2", "-1/6"], ["1", "0", "0", "0"]],
    [["1", "-3", "9/2", "-9/2"], ["-3", "2", "0", "-2/3"],
     ["1", "0", "0", "0"], ["9", "7", "1/2", "-17/6"]],
    [["1", "-1", "1/2", "-1/6"], ["3", "-2", "0", "2/3"],
     ["-3", "-4", "-2", "-2/3"], ["11", "15", "15/2", "5/2"]],
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=20)
# A "@" token is drawn as ("@", content) and written to a file by the test,
# None standing for a missing file; an output path is drawn as ("/", name).
valid_collection = st.one_of(
    st.sampled_from(["lines", "omega", "beilinson4"]),
    st.builds(lambda names, classes: ("@", {"names": names, "classes": classes}),
              st.lists(st.text(max_size=8), min_size=4, max_size=4),
              st.sampled_from(CUSTOM_CLASSES)))
any_collection = st.one_of(
    valid_collection, junk,
    st.tuples(st.just("@"), st.none() | json_values | st.binary(max_size=40)
              | st.fixed_dictionaries({
                  "names": st.lists(st.text(max_size=8) | junk, max_size=5),
                  "classes": st.lists(st.lists(rationals(4) | junk | huge,
                                               max_size=5), max_size=5)})))


def paths(name, valid):
    """An output file, or else a file in a missing folder or a name too long."""
    names = [name] if valid else [name, f"missing/{name}", "x" * 5000]
    return st.sampled_from(names).map(lambda p: ("/", p))


def option(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


def verb_argv(verb, valid):
    """The argv of one call of verb, its arguments in a drawn order; when
    not valid, any token may be malformed and a stray one may be added."""
    if valid:
        # a point is mostly in U: alpha > beta^2/2 holds for about half
        number = rationals(8)
        cls = classes(rationals(4)) | named(st.integers(-9, 9))
        point = st.tuples(fracs(-3, 3), fracs(0, 8)).map(
            lambda p: ["--beta", str(p[0]), "--alpha", str(p[1])])
        pair = st.tuples(fracs(-3, 3), fracs(0, 8)).map(
            lambda p: [str(p[0]), str(p[1])])
        collection, stray = valid_collection, st.just([])
    else:
        number = st.one_of(rationals(8), huge, junk)
        cls = st.one_of(
            classes(rationals(4)), classes(rationals(4) | huge),
            named(st.integers(-10**9, 10**9) | st.sampled_from(["9" * 600, ""])),
            st.lists(rationals(4), max_size=6).map(",".join), huge, junk)
        point = st.tuples(number, number).map(
            lambda p: ["--beta", p[0], "--alpha", p[1]])
        pair = st.tuples(number, number).map(list)
        collection = any_collection
        stray = st.sampled_from([[], ["--bogus"]]) | junk.map(lambda j: [j])
    # walls and plot draw small classes and regions only (|beta|, alpha <= 8,
    # disc <= 40): the scan has no work budget yet, and a large class or
    # region can take minutes unless the region has no Im window
    # (test_large_classes_without_a_window_have_no_walls).  A class of
    # Delta = 0, O(n) or k*O(n), needs no scan, and draws its disc bound up
    # to 1e400.
    box_class = classes(rationals(3, 6)) | named(st.integers(-8, 8))
    flat_class = st.one_of(
        st.integers(-9, 9).map(lambda n: f"O({n})"),
        st.builds(lambda k, n: ",".join(str(k * Fraction(n) ** i / factorial(i))
                                        for i in range(4)),
                  st.integers(-5, 5).filter(bool), st.integers(-9, 9)))
    huge_bound = st.one_of(st.integers(0, 400).map(lambda e: f"1e{e}"),
                           st.integers(0, 10**400).map(str))
    if valid:
        region = st.tuples(fracs(-8, 8), fracs(-8, 8), rationals(8)).map(
            lambda r: ["--beta-min", str(min(r[:2])),
                       "--beta-max", str(max(r[:2])), "--alpha-max", r[2]])
    else:
        box_class |= junk
        region = st.tuples(*[rationals(8) | junk] * 3).map(
            lambda r: ["--beta-min", r[0], "--beta-max", r[1],
                       "--alpha-max", r[2]])
    parts = {
        "class": [cls.map(lambda c: [c])],
        "tilt": [cls.map(lambda c: [c]), point, option("--a", number)],
        "bg-check": [cls.map(lambda c: [c]), point],
        "reduce": [pair],
        "collection-check": [collection.map(lambda c: [c]),
                             number.map(lambda b: ["--beta", b]),
                             option("--a0", number)],
        "interval": [collection.map(lambda c: [c]),
                     number.map(lambda b: ["--beta", b])],
        "twist": [st.tuples(cls, cls).map(list)],
    }.get(verb)
    head = st.just(())  # groups drawn together, before the others
    if parts is None:  # walls, plot
        bound = (st.integers(0, 40).map(str) if valid
                 else st.integers(-40, 40).map(str) | junk)
        # the class group and its --disc-bound group
        head = st.one_of(
            st.tuples(box_class.map(lambda c: [c]), option("--disc-bound", bound)),
            st.tuples(flat_class.map(lambda c: [c]),
                      option("--disc-bound", huge_bound | bound)))
        parts = [region]
        if verb == "plot":
            parts += [paths("scene.svg", valid).map(lambda p: ["-o", p]),
                      option("--precision", st.integers(0, 17).map(str) if valid
                             else st.integers(-1, 20).map(str) | junk)]
    parts += [st.sampled_from([[], ["--json"]]),
              option("--out", paths("out.txt", valid)), stray]
    drawn = head.flatmap(lambda first: st.tuples(*map(st.just, first), *parts))
    return drawn.flatmap(st.permutations).map(
        lambda groups: [verb] + [tok for group in groups for tok in group])


def resolve(token, folder):
    """A drawn token as a CLI argument: ("/", name) is a path in folder, and
    ("@", content) is "@path" of a file holding content."""
    if not isinstance(token, tuple):
        return token
    kind, content = token
    if kind == "/":
        return str(folder / content)
    if content is None:
        return f"@{folder / 'missing' / 'collection.json'}"
    path = folder / "collection.json"
    path.write_bytes(content if isinstance(content, bytes)
                     else json.dumps(content).encode())
    return f"@{path}"


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("verb", VERBS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_input_is_answered_or_rejected_on_one_line(verb, folder, data):
    valid = data.draw(st.booleans(), label="valid")
    argv = [resolve(tok, folder) for tok in data.draw(verb_argv(verb, valid))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), err
    assert code != 1 or verb in CHECK_VERBS
    assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err
    assert len(err) <= 243 + 1  # the line and its newline
    assert "Traceback" not in err and "internal error" not in err


# Large classes and discriminant bounds, in regions that the region rule of
# wall enumeration answers before any scan: Im Z(v) = v1 - beta*v0 <= 0
# over the whole beta range, or an alpha cap at or below U over it.
big = fracs(-10**6, 10**6)
nonneg = fracs(0, 10**6)


@st.composite
def windowless_box(draw):
    """(class, region) with components up to 10^6 and no point of the
    region where Im Z(v) > 0 under a cap above U."""
    if draw(st.booleans()):
        v = draw(st.lists(big, min_size=4, max_size=4))
        token = ",".join(map(str, v))
    else:
        # rank 1 with 2c < d^2, so Delta > 0 and the region rule answers
        d = draw(st.integers(-10**6, 10**6))
        c = draw(st.integers(-10**6, min(10**6, (d * d - 1) // 2)))
        v, token = [1, d], f"1,{d},{c},0"  # v0 = 1, v1 = d
    a, b = draw(nonneg), draw(nonneg)
    if v[0] != 0 and draw(st.booleans()):
        mu = Fraction(v[1]) / v[0]
        lo = mu + a if v[0] > 0 else mu - a - b
        region = (lo, lo + b, draw(big))
    else:
        lo = a if draw(st.booleans()) else -a - b  # the end nearest 0: a or -a
        region = (lo, lo + b, a * a / 2 - draw(nonneg))
    return token, [str(x) for x in region]


@pytest.mark.parametrize("verb", ["walls", "plot"])
@settings(max_examples=50, deadline=None)
@given(box=windowless_box(), disc=st.integers(0, 10**9))
def test_large_classes_without_a_window_have_no_walls(verb, folder, box, disc):
    token, (lo, hi, cap) = box
    argv = [verb, token, "--beta-min", lo, "--beta-max", hi, "--alpha-max", cap,
            "--disc-bound", str(disc)]
    if verb == "plot":
        argv += ["-o", str(folder / "scene.svg")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 2:  # only a class of negative discriminant is rejected
        assert err.getvalue() == "error: class has negative discriminant; no walls\n"
    else:
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue() == ("no walls found\n" if verb == "walls"
                                  else f"wrote {argv[-1]} (0 walls)\n")
