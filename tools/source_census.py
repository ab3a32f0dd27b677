"""Size of one source tree's agnnseg: lines, op kinds and settable fields.

    python3 tools/source_census.py SRC_DIR

Imports ``agnnseg`` from ``SRC_DIR/src`` and from nowhere else, as
``tools/identity_digests.py`` does, and prints one JSON object:

* ``source_lines``: the line count of each module under ``src/agnnseg``, by
  path relative to ``src``, and their ``total`` (the figure ``wc -l`` gives);
* ``op_kinds``: ``engine.op_kinds()``;
* ``fields``: the field names of ``TrainConfig``, ``EncoderConfig``,
  ``GraphConfig`` and ``SyntheticVideoSpec``, each setting a caller can
  change;
* ``defaults``: the parameters that have a default, of each public function
  defined in a module of ``agnnseg`` (by ``module.function``), and their
  ``total``: the function knobs, counted as the fields are.

Running it on the parent and the change of a simplification gives the
before and after of each count.
"""

import argparse
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

from identity_digests import _import_program


def census():
    import agnnseg
    from agnnseg.encoder import EncoderConfig
    from agnnseg.engine import op_kinds
    from agnnseg.graph import GraphConfig
    from agnnseg.pipeline import TrainConfig
    from agnnseg.synthdata import SyntheticVideoSpec

    package = Path(agnnseg.__file__).resolve().parent
    lines = {}
    defaults = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package.parent)
        lines[str(relative)] = path.read_bytes().count(b"\n")
        module = importlib.import_module(".".join(relative.with_suffix("").parts))
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            knobs = [p.name for p in inspect.signature(fn).parameters.values()
                     if p.default is not inspect.Parameter.empty]
            if knobs:
                defaults[f"{module.__name__}.{name}"] = knobs
    lines["total"] = sum(lines.values())
    defaults["total"] = sum(len(knobs) for knobs in defaults.values())
    configs = (TrainConfig, EncoderConfig, GraphConfig, SyntheticVideoSpec)
    return {
        "source_lines": lines,
        "op_kinds": op_kinds(),
        "fields": {cls.__name__: [f.name for f in dataclasses.fields(cls)] for cls in configs},
        "defaults": defaults,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", help="root of the source tree whose src/agnnseg is counted")
    args = parser.parse_args(argv)
    _import_program(args.src_dir)
    print(json.dumps(census()))


if __name__ == "__main__":
    main()
