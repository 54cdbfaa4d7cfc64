"""One fresh interpreter per task, started by run.py; never imported by it.

Modes (the last stdout line is always one JSON object):

  setup SELECTOR...                time import plus catalog.from_selector
  cli --spans FILE --model SEL -- ARGV...
                                   one traced CLI query; its answer goes to
                                   stdout as the CLI prints it, the timing
                                   record goes to FILE
  classify FILE                    slow-path classification of the certified
                                   points listed in FILE

The blueweyl package is imported from ``src/`` of the checkout, which
run.py puts on PYTHONPATH.  Traced modes write their spans to FILE only
after the answer is complete.
"""

from __future__ import annotations

import json
import sys
import time

T_START = time.perf_counter()

from tracer import Tracer  # noqa: E402  (perfbench/ is this script's directory)


def _import():
    import blueweyl  # noqa: F401
    from blueweyl import catalog, cli  # noqa: F401
    return catalog


def _ensure_repeat(tracer: Tracer, model: str) -> None:
    """Time a second rank_space call for a model that was asked only once."""
    if tracer.count_calls("weyl.rank_space", model) != 1:
        return
    # built unwrapped, so the extra model adds no catalog.build span
    presentation = tracer.originals["catalog.build"](model).presentation
    tracer.probe("weyl.rank_space_repeat", tracer.originals["weyl.rank_space"],
                 presentation)


def _dump(path: str, tracer: Tracer, record: dict) -> None:
    record.update(spans=tracer.spans, unpatched=tracer.unpatched,
                  t_end=time.perf_counter())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def mode_setup(args: list[str]) -> dict:
    catalog = _import()
    for selector in args:
        catalog.from_selector(selector)
    import blueweyl
    return {"setup_s": time.perf_counter() - T_START, "package": blueweyl.__file__}


def mode_cli(args: list[str]) -> int:
    spans, model = args[1], args[3]
    argv = args[5:]
    tracer = Tracer()
    tracer.model = model
    tracer.timed("setup.import", _import)
    tracer.install()
    from blueweyl import cli
    code = tracer.timed("cli.run", cli.run, argv)
    sys.stdout.flush()
    t_done = time.perf_counter()
    _ensure_repeat(tracer, model)
    _dump(spans, tracer, {"t_start": T_START, "t_done": t_done})
    return code


def mode_classify(args: list[str]) -> dict:
    with open(args[0], encoding="utf-8") as handle:
        todo = json.load(handle)
    from blueweyl import catalog
    from blueweyl.blueprint import (analyze_normal_form, potential_characteristics,
                                    quotient_by_vars)
    from blueweyl.spectrum import PrimePoint, residue_presentation
    models = {selector: catalog.from_selector(selector).presentation
              for selector in todo}
    n = 0
    t0 = time.perf_counter()
    for selector, points in todo.items():
        B = models[selector]
        for vars in points:
            analyze_normal_form(quotient_by_vars(B, vars))
            potential_characteristics(residue_presentation(B, PrimePoint(vars)))
            n += 1
    return {"classify_s": time.perf_counter() - t0, "classified_points": n}


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        return mode_cli(args)
    handler = {"setup": mode_setup, "classify": mode_classify}[mode]
    print(json.dumps(handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
