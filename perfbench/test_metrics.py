#!/usr/bin/env python3
"""Checks the driver against BENCHMARK.json on reduced workloads.

    python3 perfbench/test_metrics.py DRIVER BENCHMARK_JSON

For every workload: an untraced run prints exactly the end_to_end
metrics and a traced run exactly the per_layer metrics, each with the
unit BENCHMARK.json gives it, on a result line that reports no failed
op; a wrong expected value makes ops fail without stopping the run;
an unknown workload is refused with a non-zero exit and no result.
"""

import json
import os
import subprocess
import sys
import tempfile


def run(driver, *args):
    p = subprocess.run([driver, "--size", "reduced", "--seconds", "0.2",
                        *args], capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def result_of(lines):
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res
    return res


def check_metrics(res, specs, where):
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want, "%s: metrics %s, want %s" % (where, got, want)
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), (where, name)


def main():
    driver, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        bench = json.load(f)
    for wl in [w["name"] for w in bench["workloads"]]:
        for trace, specs in (("0", bench["end_to_end"]),
                             ("1", bench["per_layer"])):
            where = "%s --trace %s" % (wl, trace)
            code, lines, err = run(driver, "--workload", wl, "--seed", "5",
                                   "--trace", trace)
            assert code == 0, "%s: exit %d\n%s" % (where, code, err)
            res = result_of(lines)
            assert res["correct"] and res["failed"] == 0, (where, res, err)
            assert res["attempted"] >= 1, where
            check_metrics(res, specs, where)
            # The human-readable lines name every metric with its unit.
            for m in specs:
                assert any(l.split()[:1] == [m["name"]] and
                           l.split()[-1] == m["unit"]
                           for l in lines[:-1]), (where, m["name"])

        # A wrong expected value fails ops; the run still completes.
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("%s 5 no/such/result 0123456789abcdef\n" % wl)
        try:
            code, lines, err = run(driver, "--workload", wl, "--seed", "5",
                                   "--trace", "0", "--expected", f.name)
        finally:
            os.unlink(f.name)
        assert code == 0, (wl, code, err)
        res = result_of(lines)
        assert not res["correct"] and res["failed"] >= 1, (wl, res)
        assert res["failed"] <= res["attempted"], (wl, res)

    code, lines, _ = run(driver, "--workload", "nosuch", "--seed", "1",
                         "--trace", "0")
    assert code != 0 and not any(l.startswith("{") for l in lines)
    print("ok")


if __name__ == "__main__":
    main()
