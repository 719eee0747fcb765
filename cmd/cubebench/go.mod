module viewcube/cmd/cubebench

go 1.22

require viewcube v0.0.0

replace viewcube => ../..
