package xrpc

import "distxq/internal/trace"

// This file carries server-side spans across the one place the protocol
// layer cannot pass them structurally: error returns (a server that faults
// mid-work still owes the originator its partial spans). Trace identity
// itself travels in the request body (Request.TraceID/TraceSpan).

// tracedError attaches server-side spans to an error so they survive the
// trip through MarshalFault on any transport — the in-memory transport, the
// HTTP handler's 200-fault path, and the mid-stream fault frame all funnel
// handler errors through MarshalFault unchanged.
type tracedError struct {
	err   error
	spans []trace.Span
}

func (e *tracedError) Error() string { return e.err.Error() }

func (e *tracedError) Unwrap() error { return e.err }

// TracedError wraps err with the spans a faulting server recorded; err is
// returned unchanged when there are no spans.
func TracedError(err error, spans []trace.Span) error {
	if err == nil || len(spans) == 0 {
		return err
	}
	return &tracedError{err: err, spans: spans}
}

// faultSpans extracts piggybacked spans from an error chain.
func faultSpans(err error) []trace.Span {
	for ; err != nil; err = unwrapOnce(err) {
		if te, ok := err.(*tracedError); ok {
			return te.spans
		}
	}
	return nil
}

func unwrapOnce(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
