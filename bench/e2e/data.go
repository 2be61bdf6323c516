package main

import (
	"fmt"
	"math/rand"

	"nlidb/internal/benchdata"
	"nlidb/internal/sqldata"
)

// Dataset sizes. The generators draw every random number from the seed,
// and every size and vocabulary below is fixed, so two seeds give
// different rows but the same row counts and the same number of index
// keys: a seed changes the inputs, not the amount of work.
const (
	salesCustomers = 1400
	salesProducts  = 560
	salesOrders    = 20000
	// The last customers place no order, so "customers without orders"
	// has an answer.
	salesIdleCustomers = 40

	opsHosts   = 40
	opsMetrics = 200000
)

// buildDataset returns the named dataset generated from seed.
func buildDataset(name string, seed int64) (*benchdata.Domain, error) {
	switch name {
	case "sales2k":
		return salesDomain(seed), nil
	case "ops200k":
		return opsDomain(seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

var (
	nameOnsets = []string{"bel", "cor", "dan", "fal", "gar", "hul", "jor", "kel", "lum", "mar", "nor", "pel", "quin", "ros", "sul", "tor"}
	nameMids   = []string{"a", "e", "i", "o", "u", "an", "en", "or", "il", "ash", "eth", "um"}
	nameEnds   = []string{"da", "ric", "ton", "vik", "lo", "ma", "ney", "sa", "bert", "gan", "mir", "zen", "ford", "wyn"}

	goodsAdjs  = []string{"amber", "brisk", "cobalt", "dusky", "ember", "frost", "gilded", "hazel", "ivory", "jade", "keen", "lunar", "mossy", "noble", "onyx", "plush", "quartz", "russet", "silken", "tawny"}
	goodsNouns = []string{"anvil", "basket", "candle", "drill", "easel", "funnel", "goblet", "hammer", "inkwell", "jigsaw", "kettle", "lantern", "mallet", "needle", "oven", "pulley", "quiver", "rasp", "saddle", "trowel",
		"urn", "vise", "whistle", "yoke", "zither", "awl", "bellows", "chisel", "dowel", "ewer", "flask", "gimlet", "hinge", "ingot", "jar", "knob", "ladle", "mortar", "nozzle", "oar"}

	cityPool     = []string{"Berlin", "Munich", "Hamburg", "Cologne", "Frankfurt", "Stuttgart", "Dresden", "Leipzig", "Bremen", "Hanover", "Nuremberg", "Essen"}
	segmentPool  = []string{"retail", "corporate", "wholesale", "online"}
	categoryPool = []string{"toys", "books", "tools", "garden", "sports", "music", "kitchen", "office"}

	zonePool   = []string{"north", "south", "east", "west", "central"}
	statusPool = []string{"ok", "warn", "crit", "idle"}
	kindPool   = []string{"probe", "gauge", "counter", "timer", "event", "alarm"}
)

// personNames returns n distinct single-word names, shuffled.
func personNames(r *rand.Rand, n int) []string {
	out := make([]string, 0, len(nameOnsets)*len(nameMids)*len(nameEnds))
	for _, a := range nameOnsets {
		for _, b := range nameMids {
			for _, c := range nameEnds {
				out = append(out, a+b+c)
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// goodsNames returns n distinct single-word product names, shuffled.
func goodsNames(r *rand.Rand, n int) []string {
	out := make([]string, 0, len(goodsAdjs)*len(goodsNouns))
	for _, a := range goodsAdjs {
		for _, b := range goodsNouns {
			out = append(out, a+b)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

func mustTable(db *sqldata.Database, s *sqldata.Schema) *sqldata.Table {
	t, err := db.CreateTable(s)
	if err != nil {
		panic(fmt.Sprintf("bench data: %v", err))
	}
	return t
}

// salesDomain is benchdata.Sales' schema, synonyms included, at 1,400
// customers, 560 products and 20,000 orders: about 2,000 index keys, so
// value lookup — linear in keys — dominates every uncached question. More
// keys would leave too few requests per run for a p95: a question costs
// about 30 µs of CPU per key.
func salesDomain(seed int64) *benchdata.Domain {
	r := rand.New(rand.NewSource(seed))
	db := sqldata.NewDatabase("sales2k")

	cat := mustTable(db, &sqldata.Schema{Name: "category", Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
	}})
	for i, c := range categoryPool {
		cat.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(c))
	}

	prod := mustTable(db, &sqldata.Schema{Name: "product", Synonyms: []string{"item", "good"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "price", Type: sqldata.TypeFloat, Synonyms: []string{"cost", "expensive", "cheap"}},
		{Name: "stock", Type: sqldata.TypeInt, Synonyms: []string{"inventory"}},
		{Name: "category_id", Type: sqldata.TypeInt},
	}, ForeignKeys: []sqldata.ForeignKey{{Column: "category_id", RefTable: "category", RefColumn: "id"}}})
	for i, n := range goodsNames(r, salesProducts) {
		prod.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(n),
			sqldata.NewFloat(float64(r.Intn(9000)+100)/10.0+r.Float64()),
			sqldata.NewInt(int64(r.Intn(500))),
			sqldata.NewInt(int64(r.Intn(len(categoryPool))+1)))
	}

	cust := mustTable(db, &sqldata.Schema{Name: "customer", Synonyms: []string{"client", "buyer"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "city", Type: sqldata.TypeText, Synonyms: []string{"town"}},
		{Name: "segment", Type: sqldata.TypeText},
		{Name: "credit", Type: sqldata.TypeFloat, Synonyms: []string{"limit"}},
	}})
	for i, n := range personNames(r, salesCustomers) {
		cust.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(n),
			sqldata.NewText(cityPool[r.Intn(len(cityPool))]), sqldata.NewText(segmentPool[r.Intn(len(segmentPool))]),
			sqldata.NewFloat(float64(r.Intn(50000))+r.Float64()))
	}

	ord := mustTable(db, &sqldata.Schema{Name: "orders", Synonyms: []string{"order", "purchase", "sale"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "customer_id", Type: sqldata.TypeInt},
		{Name: "product_id", Type: sqldata.TypeInt},
		{Name: "quantity", Type: sqldata.TypeInt, Synonyms: []string{"amount"}},
		{Name: "total", Type: sqldata.TypeFloat, Synonyms: []string{"revenue"}},
	}, ForeignKeys: []sqldata.ForeignKey{
		{Column: "customer_id", RefTable: "customer", RefColumn: "id"},
		{Column: "product_id", RefTable: "product", RefColumn: "id"},
	}})
	for i := 0; i < salesOrders; i++ {
		ord.MustInsert(sqldata.NewInt(int64(i+1)),
			sqldata.NewInt(int64(r.Intn(salesCustomers-salesIdleCustomers)+1)),
			sqldata.NewInt(int64(r.Intn(salesProducts)+1)),
			sqldata.NewInt(int64(r.Intn(9)+1)),
			sqldata.NewFloat(float64(r.Intn(2000)+10)+r.Float64()))
	}
	return &benchdata.Domain{Name: "sales2k", DB: db, Main: "customer"}
}

// opsDomain is a 40-row host dimension under a 200,000-row metric fact
// table with about 70 index keys: interpretation is cheap and every
// question scans, filters, groups or joins the fact table.
func opsDomain(seed int64) *benchdata.Domain {
	r := rand.New(rand.NewSource(seed))
	db := sqldata.NewDatabase("ops200k")

	host := mustTable(db, &sqldata.Schema{Name: "host", Synonyms: []string{"server", "machine"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldata.TypeText},
		{Name: "zone", Type: sqldata.TypeText, Synonyms: []string{"region"}},
		{Name: "cores", Type: sqldata.TypeInt},
	}})
	for i, n := range personNames(r, opsHosts) {
		host.MustInsert(sqldata.NewInt(int64(i+1)), sqldata.NewText(n),
			sqldata.NewText(zonePool[i%len(zonePool)]),
			sqldata.NewInt(int64(2<<r.Intn(5))))
	}

	metric := mustTable(db, &sqldata.Schema{Name: "metric", Synonyms: []string{"sample", "measurement"}, Columns: []sqldata.Column{
		{Name: "id", Type: sqldata.TypeInt, PrimaryKey: true},
		{Name: "status", Type: sqldata.TypeText, Synonyms: []string{"state"}},
		{Name: "kind", Type: sqldata.TypeText},
		{Name: "host_id", Type: sqldata.TypeInt},
		{Name: "cpu", Type: sqldata.TypeFloat, Synonyms: []string{"load"}},
		{Name: "rss", Type: sqldata.TypeInt, Synonyms: []string{"memory"}},
	}, ForeignKeys: []sqldata.ForeignKey{{Column: "host_id", RefTable: "host", RefColumn: "id"}}})
	for i := 0; i < opsMetrics; i++ {
		metric.MustInsert(sqldata.NewInt(int64(i+1)),
			sqldata.NewText(statusPool[r.Intn(len(statusPool))]),
			sqldata.NewText(kindPool[r.Intn(len(kindPool))]),
			sqldata.NewInt(int64(r.Intn(opsHosts)+1)),
			sqldata.NewFloat(r.Float64()*100),
			sqldata.NewInt(int64(r.Intn(1<<20))))
	}
	return &benchdata.Domain{Name: "ops200k", DB: db, Main: "metric"}
}
