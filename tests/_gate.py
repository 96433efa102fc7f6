"""``scripts/gate.py`` for the tests: the module itself (it is a script,
not part of the package), its judgement of a live tracer, and corrupted
copies of real artifacts."""

import importlib.util
import json
import os

from repro.obs import write_trace

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def _load():
    path = os.path.join(REPO, "scripts", "gate.py")
    spec = importlib.util.spec_from_file_location("gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load()


def trace_failures(path, **expect):
    """What a table row expecting ``expect`` says about the trace."""
    return gate.check_artifact(gate.Trace(str(path)), expect)


def phase_order_failures(tracer, path):
    """What the gate's ``phase_order`` key says about a live
    :class:`~repro.obs.Tracer`, exported to ``path`` first."""
    write_trace(str(path), tracer)
    return trace_failures(path, phase_order=True)


def corrupt_trace(source, target, mutate):
    """Copy the trace ``source`` to ``target``, passing every record
    through ``mutate(record)``; a record it returns ``None`` for is
    dropped.  Returns ``target`` as a string."""
    with open(source) as records, open(target, "w") as out:
        for line in records:
            record = mutate(json.loads(line))
            if record is not None:
                out.write(json.dumps(record, sort_keys=True) + "\n")
    return str(target)
