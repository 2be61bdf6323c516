package resilient

import (
	"fmt"
	"strings"

	"nlidb/internal/athena"
	"nlidb/internal/invindex"
	"nlidb/internal/keywordnl"
	"nlidb/internal/lexicon"
	"nlidb/internal/nlq"
	"nlidb/internal/parsenl"
	"nlidb/internal/patternnl"
	"nlidb/internal/sqldata"
)

// DefaultChainNames is the survey-ordered degradation sequence: the
// ontology-driven BI interpreter first, then parse+schema, then pattern,
// then keyword — each step trading precision for coverage and simplicity.
var DefaultChainNames = []string{"athena", "parse", "pattern", "keyword"}

// EngineByName constructs one entity-based interpreter over db by its
// family name (athena, parse, pattern, keyword), with an index of its own.
func EngineByName(name string, db *sqldata.Database, lex *lexicon.Lexicon) (nlq.Interpreter, error) {
	return engineOverIndex(name, db, invindex.Build(db, lex), lex)
}

// engineOverIndex constructs the named interpreter over an index already
// built for db with lex.
func engineOverIndex(name string, db *sqldata.Database, ix *invindex.Index, lex *lexicon.Lexicon) (nlq.Interpreter, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "keyword":
		return keywordnl.New(db, ix), nil
	case "pattern":
		return patternnl.New(db, ix), nil
	case "parse":
		return parsenl.New(db, ix), nil
	case "athena":
		return athena.New(db, ix, lex), nil
	default:
		return nil, fmt.Errorf("resilient: unknown engine %q", name)
	}
}

// ChainByNames constructs a fallback chain from engine names, dropping
// duplicates while keeping first-occurrence order. The engines share one
// inverted index, built here.
func ChainByNames(db *sqldata.Database, lex *lexicon.Lexicon, names []string) ([]nlq.Interpreter, error) {
	return ChainOverIndex(db, invindex.Build(db, lex), lex, names)
}

// ChainOverIndex is ChainByNames over an index the caller built for db
// with lex and also hands to whatever else resolves words against db
// (a dialogue resolver, a completer), so a process builds it once.
func ChainOverIndex(db *sqldata.Database, ix *invindex.Index, lex *lexicon.Lexicon, names []string) ([]nlq.Interpreter, error) {
	var chain []nlq.Interpreter
	seen := map[string]bool{}
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		eng, err := engineOverIndex(n, db, ix, lex)
		if err != nil {
			return nil, err
		}
		chain = append(chain, eng)
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("resilient: empty engine chain")
	}
	return chain, nil
}
