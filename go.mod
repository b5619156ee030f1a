module acclaim

go 1.23
