"""Fresh in-process estimates, for comparing answers across hash seeds.

Usage: ``python hash_oracle.py < REQUESTS``, where ``REQUESTS`` is a
JSON list of ``[circuit, scenario spec]`` pairs.  Prints a JSON list
with each pair's line distributions from
``repro.core.backend.estimate(..., backend="auto", cache=None)``, in
the form ``/estimate`` returns with ``detail=distributions``.
``serving.py`` runs it under another ``PYTHONHASHSEED`` than the
server's.
"""

import json
import sys


def main() -> int:
    from repro.circuits.suite import load_circuit
    from repro.core.backend import estimate
    from repro.core.inputs import input_model_from_spec

    answers = []
    for name, spec in json.load(sys.stdin):
        result = estimate(load_circuit(name), input_model_from_spec(spec), backend="auto", cache=None)
        answers.append({line: [float(v) for v in d] for line, d in result.distributions.items()})
    json.dump(answers, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
