import os
import subprocess
import sys

import ebsplines

# Each of these adds about 0.2 s to `import ebsplines` (scipy.optimize alone
# took 0.20-0.27 s on a 2-core host), on top of a set-up of about 0.25 s.
HEAVY = ("scipy.optimize", "scipy.stats", "scipy.integrate")


def test_package_import_leaves_heavy_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ebsplines.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import ebsplines, sys; "
            f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.strip()
    assert out == "", f"import ebsplines loaded {out}"
