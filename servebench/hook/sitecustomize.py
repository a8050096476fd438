"""Start-up hook of the serving benchmark's traced run.

The traced run puts this directory first on ``PYTHONPATH``, so every
interpreter of the server's process tree (the HTTP edge and the spawned
shard workers alike) imports this module at start-up.  It installs the
span recorder only when ``SERVEBENCH_TRACE_DIR`` is set, and does
nothing otherwise.
"""

import os

if os.environ.get("SERVEBENCH_TRACE_DIR"):
    import servebench_tracer

    servebench_tracer.install(os.environ["SERVEBENCH_TRACE_DIR"])
