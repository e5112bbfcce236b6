package xrpc

import (
	"bytes"
	"fmt"
	"strconv"

	"distxq/internal/eval"
	"distxq/internal/projection"
	"distxq/internal/trace"
	"distxq/internal/xdm"
)

// MarshalRequest serializes a request into a SOAP message. For
// pass-by-projection, paramUsed/paramReturned supply the per-parameter
// relative projection paths applied while serializing, and the request's
// ResultUsed/ResultReturned travel in the projection-paths element for the
// server to apply on the response (Fig. 5).
func MarshalRequest(r *Request, paramUsed, paramReturned []projection.PathSet, opts projection.Options) ([]byte, error) {
	st := &encodeState{
		sem:           r.Semantics,
		paramUsed:     paramUsed,
		paramReturned: paramReturned,
		projOpts:      opts,
	}
	var seqs []xdm.Sequence
	var paramOf []int
	for _, call := range r.Calls {
		if len(call) != r.Arity {
			return nil, fmt.Errorf("xrpc: call has %d parameters, arity is %d", len(call), r.Arity)
		}
		for p, s := range call {
			seqs = append(seqs, s)
			paramOf = append(paramOf, p)
		}
	}
	if err := st.buildFragments(seqs, paramOf); err != nil {
		return nil, err
	}
	var sb bytes.Buffer
	sb.WriteString(envelopeOpen + "<" + elBody + "><" + elRequest)
	writeEscAttr(&sb, "method", r.Method)
	writeIntAttr(&sb, "arity", int64(r.Arity))
	writeAttr(&sb, "semantics", r.Semantics.String())
	writeEscAttr(&sb, "base-uri", r.Static.BaseURI)
	writeEscAttr(&sb, "collation", r.Static.DefaultCollation)
	writeEscAttr(&sb, "datetime", r.Static.CurrentDateTime)
	if r.BudgetNS > 0 {
		writeIntAttr(&sb, "budget-ns", r.BudgetNS)
	}
	if r.TraceID != 0 {
		writeUintAttr(&sb, "trace-id", r.TraceID)
		writeUintAttr(&sb, "span-id", r.TraceSpan)
	}
	sb.WriteByte('>')
	writeTextEl(&sb, elModule, r.Module)
	if r.Semantics == ByProjection {
		sb.WriteString("<" + elProjPaths + ">")
		for _, p := range r.ResultUsed {
			writeTextEl(&sb, elUsedPath, p.String())
		}
		for _, p := range r.ResultReturned {
			writeTextEl(&sb, elRetPath, p.String())
		}
		sb.WriteString("</" + elProjPaths + ">")
	}
	st.writeFragments(&sb)
	for _, call := range r.Calls {
		sb.WriteString("<" + elCall + ">")
		for _, s := range call {
			if err := st.writeSequence(&sb, s); err != nil {
				return nil, err
			}
		}
		sb.WriteString("</" + elCall + ">")
	}
	sb.WriteString("</" + elRequest + "></" + elBody + "></env:Envelope>")
	return sb.Bytes(), nil
}

// ParseRequest shreds a request message: fragments become fresh documents
// and parameter sequences resolve into them (preserving node identity and
// order among parameters of the same message, §V).
func ParseRequest(data []byte) (*Request, error) {
	doc, err := xdm.ParseBytes(data, "xrpc:request")
	if err != nil {
		return nil, fmt.Errorf("xrpc: malformed request: %w", err)
	}
	reqEl, err := messagePayload(doc, elRequest)
	if err != nil {
		return nil, err
	}
	r := &Request{Method: attrOr(reqEl, "method", "")}
	r.Arity, _ = strconv.Atoi(attrOr(reqEl, "arity", "0"))
	r.Semantics, err = ParseSemantics(attrOr(reqEl, "semantics", "by-value"))
	if err != nil {
		return nil, err
	}
	r.Static = eval.StaticContext{
		BaseURI:          attrOr(reqEl, "base-uri", ""),
		DefaultCollation: attrOr(reqEl, "collation", ""),
		CurrentDateTime:  attrOr(reqEl, "datetime", ""),
	}
	r.BudgetNS, _ = strconv.ParseInt(attrOr(reqEl, "budget-ns", "0"), 10, 64)
	r.TraceID, _ = strconv.ParseUint(attrOr(reqEl, "trace-id", "0"), 10, 64)
	r.TraceSpan, _ = strconv.ParseUint(attrOr(reqEl, "span-id", "0"), 10, 64)
	if m := findChild(reqEl, elModule); m != nil {
		r.Module = m.StringValue()
	}
	if pp := findChild(reqEl, elProjPaths); pp != nil {
		for _, c := range childElems(pp) {
			p, perr := projection.ParsePath(c.StringValue())
			if perr != nil {
				return nil, perr
			}
			switch localName(c.Name) {
			case localName(elUsedPath):
				r.ResultUsed = r.ResultUsed.Add(p)
			case localName(elRetPath):
				r.ResultReturned = r.ResultReturned.Add(p)
			}
		}
	}
	st, err := decodeFragments(findChild(reqEl, elFragments))
	if err != nil {
		return nil, err
	}
	r.fragDocs = st.fragDocs
	for _, callEl := range childElems(reqEl) {
		if !nameIs(callEl, elCall) {
			continue
		}
		var params []xdm.Sequence
		for _, seqEl := range childElems(callEl) {
			if !nameIs(seqEl, elSequence) {
				return nil, fmt.Errorf("xrpc: unexpected %s in call", seqEl.Name)
			}
			s, err := st.decodeSequence(seqEl)
			if err != nil {
				return nil, err
			}
			params = append(params, s)
		}
		if len(params) != r.Arity {
			return nil, fmt.Errorf("xrpc: call carries %d sequences, arity is %d", len(params), r.Arity)
		}
		if params == nil {
			params = []xdm.Sequence{}
		}
		r.Calls = append(r.Calls, params)
	}
	if len(r.Calls) == 0 {
		return nil, fmt.Errorf("xrpc: request without calls")
	}
	return r, nil
}

// MarshalResponse serializes the results of every call. For
// pass-by-projection, resultUsed/resultReturned are the relative paths from
// the request's projection-paths element, applied to the result sequences
// while building the response fragments.
func MarshalResponse(resp *Response, resultUsed, resultReturned projection.PathSet, opts projection.Options) ([]byte, error) {
	st := &encodeState{
		sem:           resp.Semantics,
		paramUsed:     []projection.PathSet{resultUsed},
		paramReturned: []projection.PathSet{resultReturned},
		projOpts:      opts,
	}
	if err := st.buildFragments(resp.Results, nil); err != nil {
		return nil, err
	}
	var sb bytes.Buffer
	sb.WriteString(envelopeOpen + "<" + elBody + "><" + elResponse)
	writeAttr(&sb, "semantics", resp.Semantics.String())
	writeIntAttr(&sb, "exec-ns", resp.ExecNanos)
	writeIntAttr(&sb, "serde-ns", resp.SerializeNanos)
	sb.WriteByte('>')
	writeTraceEl(&sb, resp.Spans)
	st.writeFragments(&sb)
	for _, res := range resp.Results {
		sb.WriteString("<" + elCall + ">")
		if err := st.writeSequence(&sb, res); err != nil {
			return nil, err
		}
		sb.WriteString("</" + elCall + ">")
	}
	sb.WriteString("</" + elResponse + "></" + elBody + "></env:Envelope>")
	return sb.Bytes(), nil
}

// ParseResponse shreds a response message.
func ParseResponse(data []byte) (*Response, error) {
	doc, err := xdm.ParseBytes(data, "xrpc:response")
	if err != nil {
		return nil, fmt.Errorf("xrpc: malformed response: %w", err)
	}
	respEl, err := messagePayload(doc, elResponse)
	if err != nil {
		return nil, err
	}
	resp := &Response{}
	resp.Semantics, err = ParseSemantics(attrOr(respEl, "semantics", "by-value"))
	if err != nil {
		return nil, err
	}
	resp.ExecNanos, _ = strconv.ParseInt(attrOr(respEl, "exec-ns", "0"), 10, 64)
	resp.SerializeNanos, _ = strconv.ParseInt(attrOr(respEl, "serde-ns", "0"), 10, 64)
	resp.Spans = parseTraceEl(respEl)
	st, err := decodeFragments(findChild(respEl, elFragments))
	if err != nil {
		return nil, err
	}
	resp.fragDocs = st.fragDocs
	for _, callEl := range childElems(respEl) {
		if !nameIs(callEl, elCall) {
			continue
		}
		seqEl := findChild(callEl, elSequence)
		if seqEl == nil {
			return nil, fmt.Errorf("xrpc: response call without sequence")
		}
		s, err := st.decodeSequence(seqEl)
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, s)
	}
	return resp, nil
}

// Fault is an XRPC error travelling back as a SOAP fault. Code, when
// non-empty, types the failure class (FaultCodeDeadline, FaultCodeOverloaded)
// so originators can match it with errors.Is instead of parsing messages.
type Fault struct {
	Msg  string
	Code string
	// Spans carries the server-side spans of a traced request that faulted —
	// a lane that fails over mid-stream still contributes its partial server
	// work to the originator's tree.
	Spans []trace.Span
}

func (f *Fault) Error() string {
	if f.Code != "" {
		return "xrpc: remote fault [" + f.Code + "]: " + f.Msg
	}
	return "xrpc: remote fault: " + f.Msg
}

// Is maps the wire-level fault codes back onto the typed sentinels, so a
// deadline or overload failure keeps its identity across the SOAP hop.
func (f *Fault) Is(target error) bool {
	switch f.Code {
	case FaultCodeDeadline:
		return target == ErrDeadlineExceeded
	case FaultCodeOverloaded:
		return target == ErrOverloaded
	}
	return false
}

// MarshalFault renders an error as a SOAP fault message, carrying the typed
// failure class (when the error has one) as an env:Code child.
func MarshalFault(err error) []byte {
	var sb bytes.Buffer
	sb.WriteString(envelopeOpen + "<" + elBody + "><env:Fault>")
	if code := faultCode(err); code != "" {
		writeTextEl(&sb, "env:Code", code)
	}
	writeTextEl(&sb, "env:Reason", err.Error())
	writeTraceEl(&sb, faultSpans(err))
	sb.WriteString("</env:Fault></" + elBody + "></env:Envelope>")
	return sb.Bytes()
}

// writeTraceEl emits the piggybacked-span element when spans are present;
// untraced messages stay byte-identical to the pre-trace wire form.
func writeTraceEl(sb *bytes.Buffer, spans []trace.Span) {
	if len(spans) == 0 {
		return
	}
	data, err := trace.EncodeSpans(spans)
	if err != nil {
		return // dropping spans never fails a message
	}
	writeTextEl(sb, elTrace, string(data))
}

// parseTraceEl decodes a piggybacked-span child of el, nil when absent or
// malformed — trace data is advisory and never fails message decoding.
func parseTraceEl(el *xdm.Node) []trace.Span {
	tEl := findChild(el, elTrace)
	if tEl == nil {
		return nil
	}
	spans, err := trace.DecodeSpans([]byte(tEl.StringValue()))
	if err != nil {
		return nil
	}
	return spans
}

// messagePayload unwraps Envelope/Body and returns the payload element,
// surfacing faults as errors.
func messagePayload(doc *xdm.Document, want string) (*xdm.Node, error) {
	env := doc.DocElem()
	if env == nil || !nameIs(env, elEnvelope) {
		return nil, fmt.Errorf("xrpc: not a SOAP envelope")
	}
	body := findChild(env, elBody)
	if body == nil {
		return nil, fmt.Errorf("xrpc: envelope without body")
	}
	if f := findChild(body, "env:Fault"); f != nil {
		fault := &Fault{Msg: f.StringValue()}
		if r := findChild(f, "env:Reason"); r != nil {
			fault.Msg = r.StringValue()
		}
		if c := findChild(f, "env:Code"); c != nil {
			fault.Code = c.StringValue()
		}
		fault.Spans = parseTraceEl(f)
		return nil, fault
	}
	el := findChild(body, want)
	if el == nil {
		return nil, fmt.Errorf("xrpc: body lacks %s", want)
	}
	return el, nil
}
