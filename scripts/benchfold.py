"""The one parser of `go test -bench` output that scripts/check.sh's stages share."""
import json
import re


def fold(bench_out, record, best_of_count=False):
    """Parse the benchmark lines in the file bench_out, store them as the
    "current" section of the JSON file record (its checked-in "baseline" stays
    as it is) and return them as {name: {"ns_per_op": ..., "<unit>": ...}}.

    With best_of_count, a benchmark that appears several times (-count=N) keeps
    its fastest run: for gates that compare benchmarks run minutes apart on a
    shared host, whose run-to-run noise exceeds the margins enforced.
    """
    current = {}
    for ln in open(bench_out).read().splitlines():
        m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$', ln)
        if not m:
            continue
        name, _, ns, rest = m.groups()
        entry = {"ns_per_op": float(ns)}
        for val, unit in re.findall(r'([\d.]+) (\S+)', rest):
            key = unit.replace('/op', '_per_op').replace('-', '_').replace('/', '_')
            entry[key] = float(val)
        if best_of_count and name in current and current[name]["ns_per_op"] <= entry["ns_per_op"]:
            continue
        current[name] = entry
    with open(record) as f:
        doc = json.load(f)
    doc["current"] = current
    with open(record, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"updated {record}: {len(current)} benchmark entries")
    return current
