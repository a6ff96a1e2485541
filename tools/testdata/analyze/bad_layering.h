// Fixture: docstore header reaching up into the cluster layer. Copied by
// hotman_analyze_test.py into a scratch tree as src/docstore/<this file>;
// never compiled.
#ifndef HOTMAN_TESTDATA_BAD_LAYERING_H_
#define HOTMAN_TESTDATA_BAD_LAYERING_H_

#include "cluster/cluster.h"

#endif  // HOTMAN_TESTDATA_BAD_LAYERING_H_
