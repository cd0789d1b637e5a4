"""Child-process bootstrap: run one real `plsf` command from the checkout's
`src/`, time-stamp the first call into its main loop, and optionally trace
every layer.

    python3 perfbench/child.py --src SRC --mark MARK.json \\
        --first galerkin:advance [--setup-only] \\
        [--spans SPANS.json --run-id ID] -- run config.ini

The mark file records the import time of `plsf.cli` and the
CLOCK_MONOTONIC time of the first call into any `--first` function (the
end of set-up).  With `--setup-only` the process exits at that first call,
so set-up can be sampled several times cheaply.  With `--spans` the public
functions of every plsf module are wrapped by `spans.Tracer` and the spans
are written when the command ends.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--mark", required=True)
    parser.add_argument("--first", action="append", default=[],
                        help="module:function whose first call ends set-up")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("plsf_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    if opts.plsf_args[:1] == ["--"]:
        opts.plsf_args = opts.plsf_args[1:]
    return opts


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _hook_first_call(package, targets, mark, setup_only, mark_path):
    from spans import patch_everywhere

    def on_first_call():
        if mark["first_call"] is None:
            mark["first_call"] = time.monotonic()
            if setup_only:
                _write_json(mark_path, mark)
                sys.stdout.flush()
                os._exit(0)

    for target in targets:
        mod_name, fn_name = target.split(":")
        original = getattr(getattr(package, mod_name), fn_name)

        @functools.wraps(original)
        def hooked(*args, __original=original, **kwargs):
            on_first_call()
            return __original(*args, **kwargs)

        patch_everywhere(package, original, hooked)


def main(argv=None) -> int:
    opts = _parse(argv)
    src = os.path.abspath(opts.src)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import plsf
    import plsf.cli
    mark = {"import_s": time.perf_counter() - t0, "first_call": None}
    if not os.path.abspath(plsf.__file__).startswith(src + os.sep):
        print(f"plsf was imported from {plsf.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    _hook_first_call(plsf, opts.first, mark, opts.setup_only, opts.mark)
    tracer = None
    if opts.spans:
        from spans import Tracer

        tracer = Tracer(opts.run_id)
        tracer.install(plsf)
    try:
        return plsf.cli.main(opts.plsf_args)
    finally:
        if tracer is not None:
            tracer.dump(opts.spans)
        _write_json(opts.mark, mark)


if __name__ == "__main__":
    sys.exit(main())
