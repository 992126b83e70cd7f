// Package dist is the session protocol between a capture point and the
// flowzipd ingestion daemon (internal/server): framed messages over one TCP
// connection per capture stream.
//
//	client                                  daemon
//	  hello, open(tenant, options)  ───►
//	                                ◄───   openok(session id, credit window)
//	  packets ─► packets ─► ...     ───►   (up to the window in flight)
//	                                ◄───   ack(seq, packets)  cumulative
//	  close                         ───►
//	                                ◄───   closed(summary) | fail(message)
//
// A batch is acked only once it is queued into the session's compression
// pipeline, so the ack stream is the durability signal: everything acked is
// flushed into archives on disconnect or drain. SessionConn speaks either
// half of the exchange, Server is the daemon's accept loop and shutdown
// sequencing, and NetConfig carries the timeouts and the credit window both
// ends share. The frame layout and every payload are in protocol.go; the
// bytes are pinned by the golden frames under testdata/golden.
package dist
