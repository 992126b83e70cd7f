// Package server implements flowzipd, the long-lived multi-tenant ingestion
// daemon: many concurrent capture clients stream packet batches over the
// framed TCP session protocol (internal/dist),
// each session runs its own bounded compression pipeline, and archives land
// under one directory per tenant, rotated on size and age boundaries with a
// JSON sidecar per segment.
//
// The daemon preserves the system-wide invariant: every archive segment is
// byte-for-byte what a serial core.Compress over that packet range would
// produce. Quotas (sessions, resident packets, archive bytes) bound tenants;
// backpressure reaches the capture point through the ack stream (a batch is
// acked only after the pipeline accepted it); graceful shutdown finalizes
// in-flight sessions and flushes their archives before returning.
//
// Counters are exposed in the Prometheus text format on the optional metrics
// endpoint.
package server
