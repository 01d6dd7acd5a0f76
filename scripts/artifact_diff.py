#!/usr/bin/env python3
"""Name what moved between two copies of a determinism artifact.

Usage: scripts/artifact_diff.py BASE HEAD

For a JSON file, prints every path whose value differs, with its base
and head values.  Array elements are named rather than numbered: an
object with a "name" (or "stage") field by that name and its labels,
anything else as "[]".  Paths that coincide once named are printed
once, with the first differing pair and how many places differ.

For a JSONL trace (one object per line), prints the line count per
span name ("name", else "type") wherever base and head differ.

Only reports; the exit status is 0 unless a file cannot be read.
"""

import json
import sys
from collections import Counter

ABSENT = "(absent)"


def element_key(value):
    if isinstance(value, dict):
        for field in ("name", "stage"):
            name = value.get(field)
            if isinstance(name, str):
                labels = value.get("labels")
                if isinstance(labels, dict) and labels:
                    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                    return f"[{name}{{{inner}}}]"
                return f"[{name}]"
    return "[]"


def keyed(items):
    """Array elements by their key; repeats of a key keep their order."""
    seen = Counter()
    out = {}
    for value in items:
        key = element_key(value)
        out[(key, seen[key])] = value
        seen[key] += 1
    return out


def walk(path, base, head, diffs):
    if isinstance(base, dict) and isinstance(head, dict):
        for k in list(base) + [k for k in head if k not in base]:
            walk(f"{path}.{k}" if path else k, base.get(k, ABSENT), head.get(k, ABSENT), diffs)
    elif isinstance(base, list) and isinstance(head, list):
        b, h = keyed(base), keyed(head)
        for k in list(b) + [k for k in h if k not in b]:
            walk(path + k[0], b.get(k, ABSENT), h.get(k, ABSENT), diffs)
    elif base != head or type(base) is not type(head):
        diffs.append((path, base, head))


def show(value):
    text = value if value is ABSENT else json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def json_report(base_file, head_file):
    with open(base_file) as f:
        base = json.load(f)
    with open(head_file) as f:
        head = json.load(f)
    diffs = []
    walk("", base, head, diffs)
    first, count = {}, Counter()
    for path, b, h in diffs:
        first.setdefault(path, (b, h))
        count[path] += 1
    for path, (b, h) in first.items():
        more = f"  ({count[path]} places)" if count[path] > 1 else ""
        print(f"  {path or '(root)'}: {show(b)} → {show(h)}{more}")


def span_counts(file):
    counts = Counter()
    with open(file) as f:
        for line in f:
            if line.strip():
                obj = json.loads(line)
                counts[obj.get("name", obj.get("type", "?"))] += 1
    return counts


def trace_report(base_file, head_file):
    base, head = span_counts(base_file), span_counts(head_file)
    for name in sorted(set(base) | set(head)):
        if base[name] != head[name]:
            print(f"  {name}: {base[name]} → {head[name]} lines")
    print(f"  total: {sum(base.values())} → {sum(head.values())} lines")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_file, head_file = sys.argv[1:]
    if base_file.endswith(".jsonl"):
        trace_report(base_file, head_file)
    else:
        json_report(base_file, head_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
