"""Seeded fuzz of the command line: malformed and extreme graph JSON, builder
specs, angles and flags for every subcommand (``period`` draws ``--cap``
only; its identity tolerance is pinned in code and it has no ``--tol``).
Whatever the input, the exit code is 0 or 1, a failure ends in a one-line
error and prints no traceback, and no exception escapes ``main``.

Sizes stay at a few hundred vertices or less.  Builder specs are refused
above ``cli.MAX_BUILDER_VERTICES``, but a spec just under it still takes
about a second.  Sweep grids are refused above ``cli.MAX_SWEEP_WORK``, and
the drawn ones stay far below it.
"""

import json

import numpy as np
import pytest

from mixedwalk.cli import main
from mixedwalk.graphs import (
    random_mixed_cycle,
    random_mixed_graph,
    random_mixed_path,
    random_mixed_tree,
    to_json_dict,
)

# Every flag takes a usable value, and an odd one at BAD_SHARE of draws.
BAD_SHARE = 0.15
ANGLES = (
    ["pi*1/3", "pi*2/5", "pi*0/1", "pi*7", "pi*-1/4", "pi*1/-6", "0.7", "-2.5", "0", "1e-320", "1e308"],
    ["pi*1/0", "pi*", "pi*1/2/3", "pi*a/b", "nan", "inf", "-inf", "", "one", "0x1p-3"],
)
CAPS = (["1", "7", "40"], ["0", "-3", "2.5", "1e3", "many"])
OPERATORS = (["U", "K,C", "U,K,C,S", "s,u", "U,,S", ""], ["Z", "U,X"])
FORMATS = (["json", "pretty"], ["yaml"])
# a vertex id, a count or a field value that is wrong in some way
ODD_VALUES = [-1, 0, 1, 2.5, True, None, "3", [], {}, [0], 10**30, -(10**40)]


def draw(rng, choices) -> str:
    good, bad = choices
    pool = bad if rng.random() < BAD_SHARE else good
    return pool[int(rng.integers(len(pool)))]


def run(argv, capsys):
    try:
        code = main(argv)
    except Exception as exc:  # the console entry would print a traceback
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert out == "", argv
        assert err.splitlines()[-1].startswith("error: "), (argv, err)
    return code


def command(rng, graph: str, small: bool) -> list[str]:
    """A random subcommand on ``graph`` with drawn angle and flags.  The
    dense commands (walk, spectrum, powering) only get small graphs."""
    names = ["period", "classify-cycle"] + (["walk", "spectrum"] if small else [])
    name = names[int(rng.integers(len(names)))]
    eta = draw(rng, ANGLES) if small else "pi*2/5"
    argv = [name, "--graph", graph, "--eta", eta, "--format", draw(rng, FORMATS)]
    if name == "walk":
        argv += ["--operators", draw(rng, OPERATORS)]
    if name == "period":
        argv += ["--cap", draw(rng, CAPS)]
    return argv


def mutated(rng, data: dict):
    """``data`` with one field or one vertex id made wrong."""
    data = json.loads(json.dumps(data))
    odd = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    kind = int(rng.integers(7))
    pairs = [p for field in ("arcs", "edges") for p in data[field]]
    if kind == 0:
        data["n"] = odd
    elif kind == 1 and pairs:
        pairs[int(rng.integers(len(pairs)))][int(rng.integers(2))] = odd
    elif kind == 2 and pairs:
        pair = pairs[int(rng.integers(len(pairs)))]
        pair.append(0) if rng.random() < 0.5 else pair.pop()
    elif kind == 3:
        data[["arcs", "edges", "n"][int(rng.integers(3))]] = odd
    elif kind == 4:
        del data[["arcs", "edges", "n"][int(rng.integers(3))]]
    elif kind == 5:
        data["edges"].append([0, 0] if rng.random() < 0.5 else list(pairs[0]) if pairs else [0, 1])
    else:
        data["weights"] = odd
    return data


def broken_text(rng, text: str) -> bytes:
    """The serialized graph truncated, corrupted, or replaced by an extreme
    document."""
    kind = int(rng.integers(7))
    if kind == 0:
        return text[: int(rng.integers(len(text)))].encode()
    if kind == 1:
        at = int(rng.integers(len(text)))
        return text[:at].encode() + bytes([int(rng.integers(256))]) + text[at + 1 :].encode()
    if kind == 2:
        return text.replace('"n": ', '"n": ' + "7" * 5000 + " + ", 1).encode()
    if kind == 3:
        return ("[" * 50_000 + "]" * 50_000).encode()
    if kind == 4:
        return text.replace("]]", "], NaN]", 1).encode()
    if kind == 5:
        return b'{"n": Infinity}' if rng.random() < 0.5 else b""
    return text.encode("utf-16")


def test_graph_files(tmp_path, capsys):
    rng = np.random.default_rng(0)
    families = (random_mixed_graph, random_mixed_path, random_mixed_tree, random_mixed_cycle)
    for i in range(80):
        n = int(rng.integers(3, 12))
        data = to_json_dict(families[i % 4](n, rng))
        path = tmp_path / f"g{i}.json"
        if i % 3 == 1:
            path.write_text(json.dumps(mutated(rng, data)))
        elif i % 3 == 2:
            path.write_bytes(broken_text(rng, json.dumps(data)))
        else:
            path.write_text(json.dumps(data))
        run(command(rng, str(path), small=True), capsys)
    # a few hundred vertices, and a vertex count far above the edge count
    for n in (300, 4_000_000):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"n": n, "edges": [[v, v + 1] for v in range(299)]}))
        run(["classify-cycle", "--graph", str(path), "--eta", "pi*1/3"], capsys)
        run(["period", "--graph", str(path), "--eta", "0.3", "--cap", "2"], capsys)


def test_builder_specs(capsys):
    rng = np.random.default_rng(0)
    usable = ["cycle:n={n},j={j}", "cycle:n={n}", "path:n={n}", "path:n={n},orient={orient}"]
    odd = [
        "cycle:", "cycle:n", "cycle:n=", "cycle:j={j}", "cycle:n={n},j=", "cycle:n={n},k=1",
        "path:n={n},orient=", "path:n={n},,", "cycle:n=1e3", "path:n=-{n}", "cycle:n= {n} ,j= {j}",
        "path:n={n},orient={orient}x", "star:n={n}",
    ]
    for _ in range(80):
        n = int(draw(rng, ([3, 4, 5, 8, 13], [-1, 0, 1, 2])))
        j = int(rng.integers(-1, max(n, 0) + 2))
        orient = "".join(rng.choice(list("fbd"), size=max(n - 1, 0)))
        spec = draw(rng, (usable, odd)).format(n=n, j=j, orient=orient)
        run(command(rng, spec, small=True), capsys)
    for spec in ("cycle:n=300,j=7", "path:n=300,orient=" + "fbd" * 99 + "ff"):
        for _ in range(3):
            run(command(rng, spec, small=False), capsys)


def test_sweep_and_verify_flags(capsys):
    rng = np.random.default_rng(0)
    pairs = (["1/2", "0/1", "-1/3", "1/-4", "2/4", "5/12"], ["1/0", "a/b", "1", ""])
    for _ in range(12):
        angles = ",".join(draw(rng, pairs) for _ in range(int(rng.integers(1, 3))))
        n_min = draw(rng, (["3", "4"], ["-1", "0", "x"]))
        n_max = draw(rng, (["3", "4"], ["2", "4.5"]))
        run(["sweep", "--n-min", n_min, "--n-max", n_max, "--angles", angles], capsys)
    # any seed >= 0 runs the full suite, which the acceptance tests cover
    for seed in ("-1", "-7", "1.5", "", "seed"):
        run(["verify", "--seed", seed], capsys)
