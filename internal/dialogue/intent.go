// Package dialogue implements the tutorial's Section 5: the extension of
// one-shot natural-language querying to a two-way conversation. It
// provides intent classification, conversational context with follow-up
// resolution (refinement, aggregation, projection shift — resolved by
// EditSQL-style editing of the previous query), three dialogue-manager
// families (finite-state, frame-based, agent-based) with the increasing
// flexibility the tutorial describes, and a simulated user that answers
// clarification and validation questions from gold queries (the DialSQL
// mechanism). The managers are a layer over the one NL→SQL pipeline, not
// a second one: a full question goes through the serving stack's Ask (see
// Asker), so a conversation's context-free turn is read exactly as a
// stateless question is; only follow-ups are resolved here.
package dialogue

import (
	"strings"

	"nlidb/internal/nlp"
)

// Intent is the goal expressed by a conversational utterance.
type Intent int

const (
	// IntentQuery is a self-contained data question.
	IntentQuery Intent = iota
	// IntentRefine narrows the previous result ("only those with …").
	IntentRefine
	// IntentAggregate re-asks the previous result as an aggregate
	// ("how many are there").
	IntentAggregate
	// IntentShift changes the projection keeping conditions
	// ("show their salaries instead").
	IntentShift
	// IntentGreeting is small talk.
	IntentGreeting
	// IntentReset clears the conversational context.
	IntentReset
)

// String names the intent.
func (i Intent) String() string {
	switch i {
	case IntentQuery:
		return "query"
	case IntentRefine:
		return "refine"
	case IntentAggregate:
		return "aggregate"
	case IntentShift:
		return "shift"
	case IntentGreeting:
		return "greeting"
	case IntentReset:
		return "reset"
	default:
		return "unknown"
	}
}

// refineOpeners start refinement follow-ups.
var refineOpeners = []string{
	"only", "just", "filter", "among those", "of those", "from those",
	"keep", "restrict", "narrow",
}

// ClassifyIntent labels an utterance given whether context exists. It is
// deliberately rule-based: the experiments contrast manager families, not
// intent classifiers, so all managers share it.
func ClassifyIntent(utterance string, hasContext bool) Intent {
	u := strings.ToLower(strings.TrimSpace(utterance))
	switch {
	case u == "hi" || u == "hello" || u == "hey" || strings.HasPrefix(u, "thank"):
		return IntentGreeting
	case u == "reset" || u == "start over" || u == "new question" || u == "clear":
		return IntentReset
	}
	if !hasContext {
		return IntentQuery
	}
	for _, o := range refineOpeners {
		if strings.HasPrefix(u, o+" ") || u == o {
			return IntentRefine
		}
	}
	toks := nlp.Tag(nlp.Tokenize(u))
	// "how many are there", "count them", "how many of those".
	if len(toks) <= 6 {
		hasCount := false
		hasAnaphor := false
		for i, t := range toks {
			if t.Lower == "count" || (t.Lower == "how" && i+1 < len(toks) && toks[i+1].Lower == "many") {
				hasCount = true
			}
			switch t.Lower {
			case "there", "them", "those", "these", "that":
				hasAnaphor = true
			}
		}
		if hasCount && (hasAnaphor || len(toks) <= 3) {
			return IntentAggregate
		}
	}
	// "show their X", "what about their X", "… instead".
	for _, t := range toks {
		if t.Lower == "their" || t.Lower == "instead" {
			return IntentShift
		}
	}
	return IntentQuery
}
