package mlsql

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"nlidb/internal/dataset"
	"nlidb/internal/neural"
	"nlidb/internal/nlp"
	"nlidb/internal/nlq"
	"nlidb/internal/sqldata"
	"nlidb/internal/sqlparse"
)

// Config tunes training and the ablation switches.
type Config struct {
	// TypeFeatures enables the TypeSQL-style typed channel (ablation A2).
	TypeFeatures bool
	// Ordered switches from the SQLNet-style set decoder to a
	// Seq2SQL-style position-sensitive condition decoder (ablation A1).
	Ordered bool
	// Hidden is the hidden layer width.
	Hidden int
	// Epochs, LR, Momentum drive SGD.
	Epochs   int
	LR       float64
	Momentum float64
	// Seed fixes initialization and shuffling.
	Seed int64
}

// DefaultConfig returns the settings the experiments use.
func DefaultConfig() Config {
	return Config{TypeFeatures: true, Hidden: 24, Epochs: 40, LR: 0.15, Momentum: 0.9, Seed: 1}
}

// Model is the trained sketch parser.
type Model struct {
	Cfg Config

	Agg      *neural.MLP // question → aggregate class
	CondN    *neural.MLP // question → number of conditions
	SelCol   *neural.MLP // (question, column) → selected?
	WhereCol *neural.MLP // (question, column) → in WHERE? (sketch decoder)
	// WhereSlot are the position-specific condition-column decoders
	// (Ordered mode): the Seq2SQL-style sequential decoder conditions on
	// the output position rather than the column identity.
	WhereSlot [maxConds]*neural.MLP
	// OpSlot are the position-specific operator decoders (Ordered mode).
	OpSlot   [maxConds]*neural.MLP
	OpCls    *neural.MLP // (question, column) → operator (sketch mode)
	Order    *neural.MLP // question → none/desc/asc
	OrderCol *neural.MLP // (question, column) → order key?
}

// Train fits the sketch parser on labelled sets. Pairs whose gold query
// does not fit the single-table sketch are skipped (and counted in the
// returned skip count) — the ML family cannot even express them.
func Train(sets []*dataset.Set, cfg Config) (*Model, int, error) {
	if cfg.Hidden <= 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		Cfg:      cfg,
		Agg:      neural.NewMLP(rng, QFDim, cfg.Hidden, len(aggClasses)),
		CondN:    neural.NewMLP(rng, QFDim, cfg.Hidden, maxConds+1),
		SelCol:   neural.NewMLP(rng, CFDim, cfg.Hidden, 2),
		WhereCol: neural.NewMLP(rng, CFDim, cfg.Hidden, 2),
		OpCls:    neural.NewMLP(rng, QFDim+CFDim, cfg.Hidden, len(opClasses)),
		Order:    neural.NewMLP(rng, QFDim, cfg.Hidden, len(orderClasses)),
		OrderCol: neural.NewMLP(rng, CFDim, cfg.Hidden, 2),
	}
	for i := range m.WhereSlot {
		m.WhereSlot[i] = neural.NewMLP(rng, CFDim, cfg.Hidden, 2)
		m.OpSlot[i] = neural.NewMLP(rng, QFDim, cfg.Hidden, len(opClasses))
	}

	type ex struct {
		x []float64
		y int
	}
	var aggX, cntX, selX, whereX, opX, ordX, ocolX []ex
	slotX := make([][]ex, maxConds)
	opSlotX := make([][]ex, maxConds)

	skipped := 0
	for _, set := range sets {
		vocabs := map[string]*tableVocab{}
		for _, p := range set.Pairs {
			tbl := set.DB.Table(p.Table)
			if tbl == nil && p.SQL != nil && p.SQL.From != nil {
				tbl = set.DB.Table(p.SQL.From.First.Name)
			}
			if tbl == nil {
				skipped++
				continue
			}
			sl, err := extractSlots(p.SQL)
			if err != nil {
				skipped++
				continue
			}
			key := strings.ToLower(tbl.Schema.Name)
			voc := vocabs[key]
			if voc == nil {
				voc = newTableVocab(tbl)
				vocabs[key] = voc
			}
			toks := nlp.Tag(nlp.Tokenize(p.Question))
			qf := questionFeatures(toks, voc, cfg.TypeFeatures)

			aggX = append(aggX, ex{qf, sl.agg})
			cntX = append(cntX, ex{qf, len(sl.conds)})
			ordX = append(ordX, ex{qf, sl.order})

			condCols := map[string]int{} // col → slot position
			for i, c := range sl.conds {
				condCols[c.col] = i
			}
			for _, col := range tbl.Schema.Columns {
				lc := strings.ToLower(col.Name)
				cf := columnFeatures(toks, voc, col)
				selLabel := 0
				if !sl.aggStar && lc == sl.selCol {
					selLabel = 1
				}
				selX = append(selX, ex{cf, selLabel})
				wLabel := 0
				if _, ok := condCols[lc]; ok {
					wLabel = 1
				}
				whereX = append(whereX, ex{cf, wLabel})
				for slot := 0; slot < maxConds && slot < len(sl.conds); slot++ {
					lbl := 0
					if sl.conds[slot].col == lc {
						lbl = 1
					}
					slotX[slot] = append(slotX[slot], ex{cf, lbl})
				}
				if sl.order > 0 {
					oLabel := 0
					if lc == sl.orderBy {
						oLabel = 1
					}
					ocolX = append(ocolX, ex{cf, oLabel})
				}
			}
			for ci, c := range sl.conds {
				cf := columnFeatures(toks, voc, *tbl.Schema.Column(c.col))
				opX = append(opX, ex{concat(qf, cf), c.op})
				if ci < maxConds {
					opSlotX[ci] = append(opSlotX[ci], ex{qf, c.op})
				}
			}
		}
	}
	if len(aggX) == 0 {
		return nil, skipped, fmt.Errorf("mlsql: no trainable examples")
	}

	fit := func(mlp *neural.MLP, data []ex) {
		if len(data) == 0 {
			return
		}
		xs := make([][]float64, len(data))
		ys := make([]int, len(data))
		for i, e := range data {
			xs[i], ys[i] = e.x, e.y
		}
		mlp.Fit(rng, xs, ys, cfg.Epochs, 16, cfg.LR, cfg.Momentum)
	}
	fit(m.Agg, aggX)
	fit(m.CondN, cntX)
	fit(m.SelCol, selX)
	if cfg.Ordered {
		for i := range m.WhereSlot {
			fit(m.WhereSlot[i], slotX[i])
			fit(m.OpSlot[i], opSlotX[i])
		}
	} else {
		fit(m.WhereCol, whereX)
		fit(m.OpCls, opX)
	}
	fit(m.Order, ordX)
	fit(m.OrderCol, ocolX)
	return m, skipped, nil
}

// Parse translates a question against one table into SQL.
func (m *Model) Parse(question string, tbl *sqldata.Table) (*sqlparse.SelectStmt, error) {
	stmt, _, err := m.ParseScored(question, tbl)
	return stmt, err
}

// ParseScored additionally returns the decoder's confidence: the
// geometric mean of the probabilities of every slot decision taken.
func (m *Model) ParseScored(question string, tbl *sqldata.Table) (*sqlparse.SelectStmt, float64, error) {
	voc := newTableVocab(tbl)
	toks := nlp.Tag(nlp.Tokenize(question))
	qf := questionFeatures(toks, voc, m.Cfg.TypeFeatures)

	var probProduct float64 = 1
	nProbs := 0
	note := func(p float64) {
		if p < 1e-6 {
			p = 1e-6
		}
		probProduct *= p
		nProbs++
	}

	sl := &slots{limit: -1}
	aggProbs := m.Agg.Probs(qf)
	sl.agg = argmax(aggProbs)
	note(aggProbs[sl.agg])

	// Score columns for the SELECT slot.
	type scored struct {
		col   sqldata.Column
		cf    []float64
		score float64
	}
	cols := make([]scored, 0, len(tbl.Schema.Columns))
	for _, c := range tbl.Schema.Columns {
		cf := columnFeatures(toks, voc, c)
		cols = append(cols, scored{col: c, cf: cf, score: m.SelCol.Probs(cf)[1]})
	}
	best := -1
	for i := range cols {
		if best < 0 || cols[i].score > cols[best].score {
			best = i
		}
	}
	if best < 0 {
		return nil, 0, fmt.Errorf("mlsql: table has no columns")
	}
	if sl.agg == aggIndex("COUNT") && cols[best].score < 0.5 {
		sl.aggStar = true
	} else {
		sl.selCol = strings.ToLower(cols[best].col.Name)
		note(cols[best].score)
	}

	// Condition count and columns.
	cntProbs := m.CondN.Probs(qf)
	n := argmax(cntProbs)
	note(cntProbs[n])
	if n > maxConds {
		n = maxConds
	}
	var condCols []scored
	if m.Cfg.Ordered {
		for slot := 0; slot < n; slot++ {
			bi, bs := -1, -1.0
			for i := range cols {
				s := m.WhereSlot[slot].Probs(cols[i].cf)[1]
				dup := false
				for _, cc := range condCols {
					if cc.col.Name == cols[i].col.Name {
						dup = true
					}
				}
				if !dup && s > bs {
					bi, bs = i, s
				}
			}
			if bi >= 0 {
				condCols = append(condCols, cols[bi])
			}
		}
	} else {
		ranked := append([]scored(nil), cols...)
		sort.SliceStable(ranked, func(i, j int) bool {
			wi := m.WhereCol.Probs(ranked[i].cf)[1]
			wj := m.WhereCol.Probs(ranked[j].cf)[1]
			return wi > wj
		})
		for i := 0; i < n && i < len(ranked); i++ {
			condCols = append(condCols, ranked[i])
		}
	}

	// Operators and values per condition. The sketch decoder ties the
	// operator to the column; the ordered decoder ties it to the slot
	// position, which is exactly what breaks when condition order in the
	// training data carries no signal.
	usedNums := map[int]bool{}
	usedVals := map[string]bool{}
	for slot, cc := range condCols {
		var op int
		if m.Cfg.Ordered && slot < maxConds {
			ops := m.OpSlot[slot].Probs(qf)
			op = argmax(ops)
			note(ops[op])
		} else {
			ops := m.OpCls.Probs(concat(qf, cc.cf))
			op = argmax(ops)
			note(ops[op])
		}
		note(m.whereProb(cc.cf, slot))
		val, ok := extractValue(toks, voc, cc.col, op, usedNums, usedVals)
		if !ok {
			continue
		}
		sl.conds = append(sl.conds, condSlot{col: strings.ToLower(cc.col.Name), op: op, val: val})
	}

	// Ordering.
	ordProbs := m.Order.Probs(qf)
	sl.order = argmax(ordProbs)
	note(ordProbs[sl.order])
	if sl.order > 0 {
		bi, bs := -1, -1.0
		for i := range cols {
			s := m.OrderCol.Probs(cols[i].cf)[1]
			if s > bs {
				bi, bs = i, s
			}
		}
		if bi >= 0 {
			sl.orderBy = strings.ToLower(cols[bi].col.Name)
			sl.limit = extractLimit(toks)
		} else {
			sl.order = 0
		}
	}

	conf := 1.0
	if nProbs > 0 {
		conf = math.Pow(probProduct, 1/float64(nProbs))
	}
	return sl.toSQL(tbl.Schema.Name), conf, nil
}

// whereProb scores a column's membership in WHERE for the active decoder.
func (m *Model) whereProb(cf []float64, slot int) float64 {
	if m.Cfg.Ordered && slot < maxConds {
		return m.WhereSlot[slot].Probs(cf)[1]
	}
	return m.WhereCol.Probs(cf)[1]
}

func argmax(ps []float64) int {
	best, bi := -1.0, 0
	for i, p := range ps {
		if p > best {
			best, bi = p, i
		}
	}
	return bi
}

// extractValue points into the question for the condition value:
// numeric columns consume number tokens left to right; text columns match
// the column's distinct data values against the question.
func extractValue(toks []nlp.Token, voc *tableVocab, col sqldata.Column, op int, usedNums map[int]bool, usedVals map[string]bool) (sqldata.Value, bool) {
	if col.Type.Numeric() {
		for _, t := range toks {
			if t.Kind == nlp.KindNumber && !usedNums[t.Pos] && !isLimitNumber(toks, t.Pos) {
				usedNums[t.Pos] = true
				if v := nlq.NumLiteral(t.Num); col.Type == sqldata.TypeInt && v.T == sqldata.TypeInt {
					return v, true
				}
				return sqldata.NewFloat(t.Num), true
			}
		}
		return sqldata.Value{}, false
	}
	if col.Type == sqldata.TypeText {
		lc := strings.ToLower(col.Name)
		// Longest distinct value whose stemmed words all appear in order.
		qwords := map[string]bool{}
		for _, t := range toks {
			qwords[t.Stem] = true
			if t.Kind == nlp.KindQuoted {
				for _, w := range strings.Fields(strings.ToLower(t.Text)) {
					qwords[nlp.Stem(w)] = true
				}
			}
		}
		bestVal, bestLen := "", 0
		for _, v := range voc.distinct[lc] {
			if usedVals[lc+"="+v] {
				continue
			}
			words := strings.Fields(strings.ToLower(v))
			all := true
			for _, w := range words {
				if !qwords[nlp.Stem(w)] {
					all = false
					break
				}
			}
			if all && len(words) > bestLen {
				bestVal, bestLen = v, len(words)
			}
		}
		if bestVal != "" {
			usedVals[lc+"="+bestVal] = true
			return sqldata.NewText(bestVal), true
		}
	}
	return sqldata.Value{}, false
}

// isLimitNumber reports whether the number token at pos belongs to a
// "top N" phrase rather than a condition.
func isLimitNumber(toks []nlp.Token, pos int) bool {
	if pos > 0 {
		switch toks[pos-1].Lower {
		case "top", "first", "bottom", "last":
			return true
		}
	}
	return false
}

// extractLimit finds the K of a top-k phrase, defaulting to 1.
func extractLimit(toks []nlp.Token) int {
	for i, t := range toks {
		if t.Kind == nlp.KindNumber && isLimitNumber(toks, i) {
			return int(t.Num)
		}
	}
	return 1
}

// MarshalJSON serializes the whole model (weights + config).
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON restores a serialized model.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	return json.Unmarshal(data, (*alias)(m))
}
