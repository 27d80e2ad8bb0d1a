#!/usr/bin/env python3
"""Validates every line of search-event JSONL streams against the published
JSON Schema (docs/schema/search_events.schema.json) with jsonschema's
Draft202012Validator.

    python3 tests/obs/validate_streams.py <stream.jsonl>...

A line is first checked against the schema branch its `kind` selects (the
top-level schema is "kind is known" and that branch, so this is the same
verdict, several times faster on the millions of lines a fuzz run records);
a line that fails there is re-checked against the whole schema, whose
errors are printed. Exits 1 when any line is invalid or no stream is given.
"""
import json
import multiprocessing
import os
import sys

from jsonschema import Draft202012Validator

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "..", "..", "docs", "schema",
                           "search_events.schema.json")


def load_validators():
    with open(SCHEMA_PATH, encoding="utf-8") as f:
        schema = json.load(f)
    Draft202012Validator.check_schema(schema)
    by_kind = {}
    for branch in schema["allOf"]:
        kind = branch["if"]["properties"]["kind"]
        then = Draft202012Validator({"$defs": schema["$defs"], **branch["then"]})
        for name in kind.get("enum", [kind.get("const")]):
            by_kind[name] = then
    return Draft202012Validator(schema), by_kind


FULL, BY_KIND = load_validators()


def chunks(paths, size=20000):
    """Yields (path, first line number, lines) in pieces for the pool."""
    for path in paths:
        with open(path, encoding="utf-8") as f:
            first, lines = 1, []
            for line in f:
                lines.append(line)
                if len(lines) == size:
                    yield path, first, lines
                    first, lines = first + size, []
            yield path, first, lines


def check(chunk):
    path, first, lines = chunk
    errors = []
    for n, line in enumerate(lines, first):
        if not line.strip():
            continue
        event = json.loads(line)
        branch = BY_KIND.get(event.get("kind")) if isinstance(event, dict) else None
        if branch is None or not branch.is_valid(event):
            errors += [f"{path}:{n}: {e.message}" for e in FULL.iter_errors(event)]
    return sum(1 for line in lines if line.strip()), errors


def main(paths):
    if not paths:
        print("validate_streams.py: no streams given", file=sys.stderr)
        return 1
    lines, errors = 0, []
    with multiprocessing.Pool(min(4, os.cpu_count() or 1)) as pool:
        for n, errs in pool.imap(check, chunks(paths)):
            lines += n
            errors += errs
    for e in errors:
        print(e)
    print(f"{len(paths)} streams, {lines} lines, {len(errors)} schema errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
