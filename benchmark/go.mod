module partsvc/benchmark

go 1.22

require partsvc v0.0.0

replace partsvc => ../
