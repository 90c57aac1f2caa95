"""Host-time benchmark of the PVM: three seeded workloads, end-to-end
metrics with tracing off and a layer-attributed traced run."""
