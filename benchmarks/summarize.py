"""Condense a pytest-benchmark JSON file into the committed BENCH_*.json form.

Usage: python benchmarks/summarize.py PYTEST_BENCHMARK_JSON OUT_JSON

One record per case: median and interquartile range in seconds, the
number of rounds, the input size the case recorded, and the Python
version and CPU the numbers were taken with.
"""
import json
import sys


def main(src: str, dst: str) -> None:
    raw = json.load(open(src))
    machine = raw["machine_info"]
    cases = [
        {
            "case": bench["name"],
            "median_s": bench["stats"]["median"],
            "iqr_s": bench["stats"]["iqr"],
            "rounds": bench["stats"]["rounds"],
            "input_size": bench["extra_info"]["input_size"],
            "python": machine["python_version"],
        }
        for bench in raw["benchmarks"]
    ]
    out = {"cpu": machine.get("cpu", {}).get("brand_raw", ""), "datetime": raw["datetime"],
           "cases": cases}
    with open(dst, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
