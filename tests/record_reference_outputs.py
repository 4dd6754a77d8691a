"""Re-record tests/data/reference_outputs.json from the code in this checkout.

    PYTHONPATH=src python tests/record_reference_outputs.py

The file pins what test_acceptance.shipped_shape_outputs computes, with the
recording host's numpy, BLAS and CPU.  Re-record only for a change that moves
these numbers on purpose, and note in CHANGES.md what moved and by how much.
"""

import json
import tempfile

import helpers
from test_acceptance import REFERENCE_OUTPUTS, shipped_shape_outputs


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        doc = {"host": helpers.host_signature(), **shipped_shape_outputs(workdir)}
    with open(REFERENCE_OUTPUTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_OUTPUTS}")


if __name__ == "__main__":
    main()
