package workload

import (
	"fmt"

	"neu10/internal/sim"
)

// Autoregressive LLM request model. A serving request is not one
// invocation but a generation: a prompt processed once (prefill) and
// then one decode iteration per output token, each iteration pinning
// the sequence's KV cache. The serving layer (internal/serve) prices
// the two phases separately through its CostDB; this file supplies the
// request-shape model the scenarios draw traces from.

// PrefixSeg is one segment of a request's KV-prefix chain: an opaque
// content key plus the segment's length in tokens. A session's requests
// share a growing chain of segments (system prompt, then one segment
// per completed turn); a prefix-caching KV backend can match the chain
// segment-by-segment against what it still holds and skip re-prefilling
// the hit. The simulator has no token content, so equal keys stand in
// for equal token spans.
type PrefixSeg struct {
	Key    uint64
	Tokens int
}

// LLMRequest is one autoregressive inference request: Prompt tokens to
// prefill, Output tokens to generate (the first is emitted by the
// prefill itself). Session traces additionally carry the request's
// prefix chain and the key under which its own prompt+output span is
// sealed into the cache at completion.
type LLMRequest struct {
	Prompt int
	Output int

	// Prefix is the chain of previously-sealed segments this prompt
	// starts with (nil for independent requests). The segment token
	// counts sum to at most Prompt; the remainder is the new turn.
	Prefix []PrefixSeg
	// SealKey names the segment covering this request's new tokens
	// (turn + generated output); 0 means the request seals nothing.
	SealKey uint64
}

// Tokens returns the request's full KV-cache residency in tokens — the
// reservation an admission-time KV accountant must find room for.
func (r LLMRequest) Tokens() int { return r.Prompt + r.Output }

// LLMTrace is the request-shape distribution: prompt and output lengths
// drawn independently as shifted exponentials (min + Exp(mean−min))
// clamped to max — the long-tailed, mostly-short shape of production
// LLM traffic. Draws consume exactly two RNG values regardless of
// outcome, so a trace is reproducible and identical across scheduler
// variants compared on the same seed.
type LLMTrace struct {
	PromptMin, PromptMean, PromptMax int
	OutputMin, OutputMean, OutputMax int

	// PromptLongFrac, when > 0, makes the prompt distribution bimodal: a
	// request's prompt is drawn from the long mode below with this
	// probability, from the base mode above otherwise — the mixed
	// long-prompt/short-prompt shape (RAG contexts and pasted documents
	// among chat turns) that makes prefill/decode interference visible.
	// The draw count per request stays fixed for a given trace config
	// (both modes are always sampled), preserving trace identity across
	// compared configurations.
	PromptLongFrac                               float64
	PromptLongMin, PromptLongMean, PromptLongMax int

	// Sessions, when > 0, turns the trace into multi-turn conversations
	// drawn via DrawSession: each arrival picks one of this many
	// concurrent sessions uniformly, its prompt is the session's whole
	// chain so far plus a fresh turn (drawn from the prompt distribution
	// above), and its completion seals the new tokens onto the chain.
	// Turn shapes still come from the base distributions, so the draw
	// count per request stays fixed and the trace is identical across
	// compared configurations regardless of serving outcomes.
	Sessions int
	// SharedPrefixTokens seeds every session with a common system-prompt
	// segment of this many tokens (the cross-session shareable prefix).
	// 0 means sessions share nothing.
	SharedPrefixTokens int
	// MaxSessionTokens caps a session chain: a turn that would push
	// chain+turn+output past it resets the session to the shared prefix
	// first (the conversation ends; a fresh one starts). This is the
	// largest KV residency any session request can reach, so it is the
	// MaxTokens() bound for session traces. Defaults to
	// SharedPrefixTokens + 4×(PromptMax+OutputMax).
	MaxSessionTokens int
}

// Defaults fills zero fields with a chat-like shape: prompts 32–1024
// tokens (mean 256), outputs 2–64 tokens (mean 16).
func (tr *LLMTrace) Defaults() {
	if tr.PromptMin == 0 {
		tr.PromptMin = 32
	}
	if tr.PromptMean == 0 {
		tr.PromptMean = 256
	}
	if tr.PromptMax == 0 {
		tr.PromptMax = 1024
	}
	if tr.OutputMin == 0 {
		tr.OutputMin = 2
	}
	if tr.OutputMean == 0 {
		tr.OutputMean = 16
	}
	if tr.OutputMax == 0 {
		tr.OutputMax = 64
	}
	if tr.Sessions > 0 && tr.MaxSessionTokens == 0 {
		tr.MaxSessionTokens = tr.SharedPrefixTokens + 4*(tr.maxTurn()+tr.OutputMax)
	}
}

// Validate rejects malformed shape bounds.
func (tr LLMTrace) Validate() error {
	check := func(kind string, min, mean, max int) error {
		switch {
		case min < 1:
			return fmt.Errorf("workload: %s min %d < 1", kind, min)
		case max < min:
			return fmt.Errorf("workload: %s max %d < min %d", kind, max, min)
		case mean < min || mean > max:
			return fmt.Errorf("workload: %s mean %d outside [%d, %d]", kind, mean, min, max)
		}
		return nil
	}
	if err := check("prompt", tr.PromptMin, tr.PromptMean, tr.PromptMax); err != nil {
		return err
	}
	if !(tr.PromptLongFrac >= 0 && tr.PromptLongFrac < 1) { // NaN fails too
		return fmt.Errorf("workload: long-prompt fraction %v out of [0,1)", tr.PromptLongFrac)
	}
	if tr.PromptLongFrac > 0 {
		if err := check("long prompt", tr.PromptLongMin, tr.PromptLongMean, tr.PromptLongMax); err != nil {
			return err
		}
	}
	if err := check("output", tr.OutputMin, tr.OutputMean, tr.OutputMax); err != nil {
		return err
	}
	if tr.Sessions < 0 {
		return fmt.Errorf("workload: %d sessions", tr.Sessions)
	}
	if tr.Sessions > 0 {
		if tr.SharedPrefixTokens < 0 {
			return fmt.Errorf("workload: shared prefix of %d tokens", tr.SharedPrefixTokens)
		}
		// A freshly-reset session must be able to host any turn+output.
		if floor := tr.SharedPrefixTokens + tr.maxTurn() + tr.OutputMax; tr.MaxSessionTokens < floor {
			return fmt.Errorf("workload: session cap %d tokens < shared prefix + worst turn + worst output = %d",
				tr.MaxSessionTokens, floor)
		}
	} else if tr.SharedPrefixTokens != 0 || tr.MaxSessionTokens != 0 {
		return fmt.Errorf("workload: session prefix/cap set without Sessions")
	}
	return nil
}

// maxTurn returns the largest single draw of the prompt distribution —
// the whole prompt for independent traces, one turn for session traces.
func (tr LLMTrace) maxTurn() int {
	if tr.PromptLongFrac > 0 && tr.PromptLongMax > tr.PromptMax {
		return tr.PromptLongMax
	}
	return tr.PromptMax
}

// MaxTokens returns the largest KV reservation any drawn request can
// need — the floor a replica's KV capacity must clear, or its queue
// head could block forever. For session traces that is the session
// cap: a request's prompt is its whole chain plus the turn.
func (tr LLMTrace) MaxTokens() int {
	if tr.Sessions > 0 {
		return tr.MaxSessionTokens
	}
	return tr.maxTurn() + tr.OutputMax
}

// MaxPrompt returns the largest prompt any drawn request can carry —
// the floor a prefill-pool replica's KV capacity must clear.
func (tr LLMTrace) MaxPrompt() int {
	if tr.Sessions > 0 {
		return tr.MaxSessionTokens - tr.OutputMin
	}
	return tr.maxTurn()
}

// MeanPrompt returns the expected prompt length (the SLO and
// migration-cost anchor). Session chains grow from the shared prefix
// toward the cap and reset, so their prompts are anchored at the
// midpoint of that range.
func (tr LLMTrace) MeanPrompt() int {
	if tr.Sessions > 0 {
		return (tr.SharedPrefixTokens + tr.MaxSessionTokens) / 2
	}
	if tr.PromptLongFrac <= 0 {
		return tr.PromptMean
	}
	m := (1-tr.PromptLongFrac)*float64(tr.PromptMean) + tr.PromptLongFrac*float64(tr.PromptLongMean)
	return int(m + 0.5)
}

// Draw samples one request shape from the trace's distributions.
func (tr LLMTrace) Draw(rng *sim.RNG) LLMRequest {
	prompt := drawLen(rng, tr.PromptMin, tr.PromptMean, tr.PromptMax)
	if tr.PromptLongFrac > 0 {
		// Both modes and the mode coin are always consumed, keeping the
		// per-request draw count a constant of the trace config.
		long := drawLen(rng, tr.PromptLongMin, tr.PromptLongMean, tr.PromptLongMax)
		if rng.Float64() < tr.PromptLongFrac {
			prompt = long
		}
	}
	return LLMRequest{
		Prompt: prompt,
		Output: drawLen(rng, tr.OutputMin, tr.OutputMean, tr.OutputMax),
	}
}

// SessionState is the mutable side of a session trace: the live
// conversation chains DrawSession grows. It belongs to the trace
// consumer (one per tenant RNG stream), not to the LLMTrace config.
type SessionState struct {
	chains  []sessionChain
	nextKey uint64
}

type sessionChain struct {
	segs   []PrefixSeg
	tokens int
}

// NewSessionState builds the initial chains for a session trace: every
// session starts at the shared system-prompt segment (key 1), or empty
// when the trace shares nothing.
func NewSessionState(tr LLMTrace) *SessionState {
	st := &SessionState{nextKey: 2}
	st.chains = make([]sessionChain, tr.Sessions)
	for i := range st.chains {
		if tr.SharedPrefixTokens > 0 {
			st.chains[i] = sessionChain{
				segs:   []PrefixSeg{{Key: 1, Tokens: tr.SharedPrefixTokens}},
				tokens: tr.SharedPrefixTokens,
			}
		}
	}
	return st
}

// DrawSession samples one multi-turn request: a uniform session pick,
// then a turn/output shape from the base distributions. The request's
// prompt is the session's whole chain plus the turn; its Prefix is the
// chain as sealed so far and its SealKey names the new segment, which
// is appended to the chain immediately — optimistically, whether or not
// the request is ultimately admitted — so the chain evolution (and with
// it the whole trace) depends only on the RNG stream, never on serving
// outcomes. A rejected turn simply leaves a segment no backend ever
// seals, which later requests miss on. Draw consumption is fixed: one
// session pick plus Draw's fixed count.
func (tr LLMTrace) DrawSession(rng *sim.RNG, st *SessionState) LLMRequest {
	i := rng.Intn(len(st.chains))
	shape := tr.Draw(rng)
	ch := &st.chains[i]
	if ch.tokens+shape.Prompt+shape.Output > tr.MaxSessionTokens {
		// Context window exhausted: the conversation ends and a fresh one
		// (sharing only the system prompt) takes its slot. Fresh slices —
		// outstanding requests still reference the old chain.
		*ch = sessionChain{}
		if tr.SharedPrefixTokens > 0 {
			ch.segs = []PrefixSeg{{Key: 1, Tokens: tr.SharedPrefixTokens}}
			ch.tokens = tr.SharedPrefixTokens
		}
	}
	req := LLMRequest{
		Prompt:  ch.tokens + shape.Prompt,
		Output:  shape.Output,
		Prefix:  ch.segs[:len(ch.segs):len(ch.segs)],
		SealKey: st.nextKey,
	}
	st.nextKey++
	ch.segs = append(ch.segs, PrefixSeg{Key: req.SealKey, Tokens: shape.Prompt + shape.Output})
	ch.tokens += shape.Prompt + shape.Output
	return req
}

// drawLen samples min + Exp(mean−min) rounded, clamped to max. The RNG
// is always consumed exactly once so the draw count per request is
// fixed (trace identity across compared configurations).
func drawLen(rng *sim.RNG, min, mean, max int) int {
	g := rng.Exp(float64(mean - min))
	if mean <= min {
		return min
	}
	v := min + int(g+0.5)
	if v > max {
		return max
	}
	return v
}
