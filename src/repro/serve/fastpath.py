# Kept only so perfbench's traced entry point
# ``repro.serve.fastpath:IndexedRepairer.repair_record`` resolves, until
# ROADMAP item 3 re-points it at IncrementalRepairer and deletes this module.
from repro.core.incremental import IncrementalRepairer

IndexedRepairer = IncrementalRepairer
