"""Condense a pytest-benchmark JSON file into the committed BENCH_*.json form.

Usage: python benchmarks/summarize.py PYTEST_BENCHMARK_JSON OUT_JSON

One record per case: median and interquartile range in seconds, the
number of rounds, the input size the case recorded, and the Python
version and CPU the numbers were taken with. When the file holds the
reference cases, each record also gives its median divided by the
reference median, which moves with the machine alone, so records taken
while the host ran at another speed can be compared. The reference job is
timed first and last in the file, and the reference median is the mean of
the two, so it also follows the machine's drift within one file.
"""
import json
import sys

# the reference job, timed first and last
REFERENCE_CASES = ("test_reference", "test_reference_last")


def main(src: str, dst: str) -> None:
    raw = json.load(open(src))
    machine = raw["machine_info"]
    medians = [bench["stats"]["median"] for bench in raw["benchmarks"]
               if bench["name"] in REFERENCE_CASES]
    reference = sum(medians) / len(medians) if medians else None
    cases = [
        {
            "case": bench["name"],
            "median_s": bench["stats"]["median"],
            "iqr_s": bench["stats"]["iqr"],
            "rounds": bench["stats"]["rounds"],
            "input_size": bench["extra_info"]["input_size"],
            "python": machine["python_version"],
            **({"median_per_reference": bench["stats"]["median"] / reference}
               if reference else {}),
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
