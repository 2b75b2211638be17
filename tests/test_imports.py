"""`import wtalab` must not drag in the network, e-mail or XML stack.

The runtime needs only numpy and the standard library. Every `wtalab`
process pays for what the package imports, so a stray import of a heavy
module (for example `xml.sax.saxutils`, which loads `urllib.request`,
`http.client`, `email.*`, `ssl` and `socket`) is a start-up cost for every
command, including the ones that never use it.
"""

import json
import os
import subprocess
import sys

FORBIDDEN = ("urllib", "http", "email", "ssl", "socket", "xml")

PROBE = """
import json, sys
before = set(sys.modules)
import wtalab, wtalab.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def modules_added_by_import() -> list[str]:
    """Top-level module names that importing wtalab and wtalab.cli adds in a
    fresh interpreter that sees this process's sys.path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_network_email_or_xml_module():
    added = modules_added_by_import()
    assert "wtalab" in added
    loaded = sorted(set(FORBIDDEN) & set(added))
    assert not loaded, f"import wtalab loads {loaded}"
