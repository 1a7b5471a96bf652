#!/usr/bin/env python3
"""Show that every reference check accepts a right answer and rejects a
planted wrong value, verdict and certificate.

    python3 bench/selftest.py

Right answers come from the package on a few round-0 inputs of each
workload; each wrong answer is planted into a copy of one of them.  Exits 0
when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import sys

import inputs
import reference
import run

failures = 0


def expect(what: str, problems: list[str], wrong: bool) -> None:
    global failures
    ok = bool(problems) == wrong
    failures += not ok
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {verdict}" + (f" ({problems[0]})" if problems else ""))


def numbers(lib) -> None:
    sweep = run.WORKLOADS["numbers-sweep"]
    cases = sweep.draw(inputs.round_rng(sweep.name, 1, 0))
    items = sweep.build(lib, cases)
    for case, item in list(zip(cases, items))[:8]:
        out = sweep.run(lib, item)
        expect(f"numbers {case[0]}({case[1].label}) = {out[0]}", sweep.check(case, out), False)
        expect(f"numbers {case[0]}({case[1].label}) planted value {out[0] + 1}",
               sweep.check(case, (out[0] + 1, out[1])), True)
    path = [(0, 1), (1, 2)]
    expect("numbers gamma(P_3) witness (0, 6, 0), which is solvable",
           reference.check_number("gamma", "P", 3, 3, path, 7, (0, 6, 0)), True)
    expect("numbers pi(P_3) witness (0, 3, 0), which reaches every vertex",
           reference.check_number("pi", "P", 3, 3, path, 4, (0, 3, 0)), True)
    expect("numbers gamma(P_3) witness (6, 1, 0) of the wrong size",
           reference.check_number("gamma", "P", 3, 3, path, 7, (6, 1, 0)), True)


def ladder(lib) -> None:
    ladder = run.WORKLOADS["x4c-ladder"]
    cases = ladder.draw(inputs.round_rng(ladder.name, 1, 0))
    items = ladder.build(lib, cases)
    picked = [i for i, c in enumerate(cases) if c.n == 2][:4]  # two yes, two no
    for i in picked:
        case, out = cases[i], ladder.run(lib, items[i])
        verdict = out["verdict"]
        expect(f"x4c {case.label}: {verdict}", ladder.check(case, out), False)
        flipped = {**out, "verdict": not verdict}
        expect(f"x4c {case.label}: planted verdict {not verdict}", ladder.check(case, flipped), True)
        if verdict:
            bare = {**out, "moves": ()}
            expect(f"x4c {case.label}: certificate with no moves", ladder.check(case, bare), True)
        if out["chain"] is not None:
            cover, names, witness, reach = out["chain"]
            moved = list(witness)
            j = next(k for k, x in enumerate(moved) if x == 31)
            moved[j] -= 16
            for what, chain in (
                ("threshold witness with 15 on a covering set", (cover, names, tuple(moved), reach)),
                ("threshold verdict: reachable", (cover, names, witness, True)),
                ("threshold cover of one set", (cover[:1], names, witness, reach)),
            ):
                planted = {**out, "chain": chain}
                expect(f"x4c {case.label}: planted {what}", ladder.check(case, planted), True)


def decisions(lib) -> None:
    mix = run.WORKLOADS["decide-mix"]
    cases = mix.draw(inputs.round_rng(mix.name, 1, 0))[:200]
    outs = [mix.run(lib, item) for item in mix.build(lib, cases)]
    seen = set()
    for case, out in zip(cases, outs):
        kind = mix.kind(out)
        if kind in seen:
            continue
        seen.add(kind)
        verdict, nodes, cert, verified = out
        expect(f"decide {kind}", mix.check(case, out), False)
        if verdict:
            planted = (False, nodes, None, None)
        else:
            planted = (True, nodes, "", True)
        expect(f"decide {kind}: planted verdict {planted[0]}", mix.check(case, planted), True)
        if verdict and nodes:
            expect(f"decide {kind}: certificate with no moves",
                   mix.check(case, (verdict, nodes, "", verified)), True)
            off_edge = [(u, w) for u in range(case.n) for w in range(case.n)
                        if u != w and (min(u, w), max(u, w)) not in case.edges][:1]
            if off_edge:
                u, w = off_edge[0]
                extra = cert + f"move v{u} v{w} 1\n"
                expect(f"decide {kind}: certificate with a move off the edges",
                       mix.check(case, (verdict, nodes, extra, verified)), True)
    if len(seen) != 3:
        expect(f"decide mix covers three kinds of verdict, saw {sorted(seen)}", ["missing"], False)


def main() -> int:
    if not (run.ROOT / "src" / "pebbling" / "__init__.py").is_file():
        print(f"no package source at {run.ROOT / 'src' / 'pebbling'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.import_package()
    numbers(lib)
    ladder(lib)
    decisions(lib)
    print("self-test:", "passed" if not failures else f"{failures} checks misbehaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
