package procnode

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nlidb/internal/shard"
	"nlidb/internal/sqldata"
)

// exportPartitions splits db into n FK-co-located partitions and writes
// each partition's tables under dir/shard<i>/ as <table>.csv plus the
// <table>.schema.json sidecar carrying the declared schema — the files
// cmd/nlidb's -csv flag loads, so a shard node child needs no bespoke
// bootstrap path and comes up with the parent's column types and keys.
// Returns the per-shard file lists (join with "," for the child's -csv
// flag) and the row-placement map the coordinator routes with.
func exportPartitions(db *sqldata.Database, dir string, n int) ([][]string, *shard.Partitioning, error) {
	dbs, part, err := shard.Split(db, n)
	if err != nil {
		return nil, nil, fmt.Errorf("procnode: %w", err)
	}
	files := make([][]string, n)
	for s, pdb := range dbs {
		sdir := filepath.Join(dir, fmt.Sprintf("shard%d", s))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("procnode: %w", err)
		}
		for _, t := range pdb.Tables() {
			path := filepath.Join(sdir, strings.ToLower(t.Schema.Name)+".csv")
			if err := sqldata.WriteCSVFile(path, t); err != nil {
				return nil, nil, fmt.Errorf("procnode: %w", err)
			}
			files[s] = append(files[s], path)
		}
	}
	return files, part, nil
}
