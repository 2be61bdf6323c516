package dialogue

import (
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlexec"
	"nlidb/internal/sqlparse"
)

// UserSim is a scripted user that answers clarification questions from a
// gold query — the experimental stand-in for the human in the NaLIR
// interaction loop. Its judgment is execution-based: a candidate is
// "right" when it returns the gold result.
type UserSim struct {
	eng     *sqlexec.Engine
	gold    *sqlparse.SelectStmt
	goldRes *sqldata.Result

	// Interactions counts questions the user had to answer — the cost
	// axis of the feedback experiments.
	Interactions int
}

// NewUserSim builds a user for one question's gold query.
func NewUserSim(db *sqldata.Database, gold *sqlparse.SelectStmt) (*UserSim, error) {
	eng := sqlexec.New(db)
	res, err := eng.Run(gold)
	if err != nil {
		return nil, err
	}
	return &UserSim{eng: eng, gold: gold, goldRes: res}, nil
}

// Choose answers a NaLIR-style multiple-choice clarification by picking
// the candidate whose execution matches the gold; it returns the index of
// the chosen interpretation (default 0).
func (u *UserSim) Choose(candidates []nlq.Interpretation) int {
	u.Interactions++
	for i, c := range candidates {
		if u.matches(c.SQL) {
			return i
		}
	}
	return 0
}

// matches reports whether candidate returns the gold result.
func (u *UserSim) matches(candidate *sqlparse.SelectStmt) bool {
	res, err := u.eng.Run(candidate)
	if err != nil {
		return false
	}
	if len(u.gold.OrderBy) > 0 {
		return res.EqualOrdered(u.goldRes)
	}
	return res.EqualUnordered(u.goldRes)
}
