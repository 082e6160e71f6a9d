#!/bin/sh
# Build the benchmark and the daemon binary from this checkout's sources,
# then run the benchmark with the given arguments (see bench.ml for the
# modes).  Build output goes to stderr; the last stdout line of a run is
# its JSON result.  The dune cache is off so the build writes only under
# _build in the checkout.
set -e
dune build --root . --cache=disabled ./perfbench/bench.exe ./bin/dls_daemond.exe 1>&2
exec ./_build/default/perfbench/bench.exe \
  --daemon ./_build/default/bin/dls_daemond.exe "$@"
