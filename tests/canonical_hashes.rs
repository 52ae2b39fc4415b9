//! The canonical hash of every corpus program, pinned to literal values.
//!
//! `gam serve` keys its outcome cache and its journal on
//! `canonical_hash`, so a change to the canonical text silently turns every
//! persisted entry into a miss (and a renamed program could then hash apart
//! from its original). The hash is a pure function of the canonical text,
//! which these literals therefore freeze byte for byte: any rewrite of the
//! canonicalizer must leave every row unchanged.

use gam_frontend::{canonical_hash, Corpus};

/// One row per program: `corpus/file-stem hash`.
const PINNED: &str = "
corpus/2+2w+fence-ss                   e5d5728136b1181c2230ea3f7dced6ed
corpus/2+2w                            dd5e363ef65a9ea17cbeca3ba98f21d8
corpus/corr+intervening-store          8ede06d622e60bc842525626200fc40b
corpus/corr                            0454dc1c834dc72ceae4623143f46c8b
corpus/corw                            2b36765fd0e01e51019a46a8a6e220b8
corpus/cowr                            03b86027d36a9d865d522431a20e8bc1
corpus/coww                            f95b2756b97770f6ef5aedb89770aee1
corpus/dekker+fence-sl                 12276593aebb4d6c432b6e8ab06d7c45
corpus/dekker                          891c49a66b602c976d0d47ab2ff503a6
corpus/iriw+fence-ll                   0a3ae8af4fb3e3e2941075e55e2ea2ab
corpus/iriw                            a976a2f07d56b8618a9a640b6a532c88
corpus/lb+data                         7397b3c9f5b48669fae5c1578f0e9ac4
corpus/lb+fence-ls                     08080d271dd4e682797344f807df8497
corpus/lb                              b26c4b2927fa2b15b87ebb5adc789218
corpus/mp+addr                         776af6d849348b4a386729a1236317d3
corpus/mp+artificial-addr              e3d07d23a7f5abc52206687712c7851e
corpus/mp+fence-ss                     60a2b7f31b1746892ec4f696ab9904b8
corpus/mp+fences                       14ac5ca485b82142a229ad3834626ad3
corpus/mp+mem-dep                      cd16b038a2a4ca48b3aa00d871448bff
corpus/mp+prefetch                     4b1017d22cc71d4c312c5f779f0e4765
corpus/mp                              5b786d7d5dad8e7f31706aea0ad10ce4
corpus/oota                            7589a76d5ec0fa7d05a1355a17c93068
corpus/r                               cdcecdbc016b9cc6c46c4e57b91e84b1
corpus/rnsw                            ce766512bbbd4348dc680dd936f4681f
corpus/rsw                             92a7b54962789b2caab61c66c81e17e3
corpus/s                               fa374b9a2833543352a4a34e597a2cc2
corpus/store-forwarding                fcdbba1b9d450c7a13f989dd8551ace3
corpus/wrc+no-dep                      c2d82fe753e671b583f499780e8ce8c2
corpus/wrc                             f37c8b20523d2f3815c7b6a57a33ea6b
corpus-stress/stress-000               7bf38f8bcaa88c81e06f5fe06429228c
corpus-stress/stress-001               88878d2c1fa3697bcf7909a0ce8a27b6
corpus-stress/stress-002               ac9b9c22914540c9613b3f19ac1b5652
corpus-stress/stress-003               b1597e03b7039518ca0cad458bbef3fb
corpus-stress/stress-004               72a491612ae63a11c1093a9ca2435086
corpus-stress/stress-005               0be53641146af89d061a3c1c23fb27dc
corpus-stress/stress-006               073ba8373da9f3c6132dc5849e0e08f5
corpus-stress/stress-007               8be9f5ad30c1db7f9f5e6ed8a638bb9c
corpus-stress/stress-008               85a5314fafce1cf42bba4f8db2da6a85
corpus-stress/stress-009               cd7f8e5d2785efbc3e6e71d77b150b7b
corpus-stress/stress-010               c8f5b60cb60d09bfe2ab85b1a482fd40
corpus-stress/stress-011               258703bdb25f6d07a1e96cefc0782450
corpus-stress/stress-012               5fd5f052f20acdbc18b9ef861a81198d
corpus-stress/stress-013               c4b60920e942381928cd443ee444dfac
corpus-stress/stress-014               8d547ed7198d5fd385300aeac756e5ca
corpus-stress/stress-015               468b501f7d0f1d945ef39f2e04bc9dbb
corpus-stress/stress-016               28419c01582aff1bc4d205dbae464a86
corpus-stress/stress-017               78e518facfdd023285c1bd4012146ce5
corpus-stress/stress-018               bf58739e32c4d722d5ea9f95e37f946b
corpus-stress/stress-019               b929f89152280dc1cac160120db0e9e0
corpus-stress/stress-020               e61ad1a96f7a1888db168bc511146923
corpus-stress/stress-021               d157124ef13053fa905dce27b1243af5
corpus-stress/stress-022               b4ce995e98d23d1af9115c30db679691
corpus-stress/stress-023               833303119120e38832a6d8b1c7af7fd7
corpus-stress/stress-024               01a9909c5d922b9c9b799285c161d2a1
corpus-stress/stress-025               266cd63389f28e4d88f39142da7b833c
corpus-stress/stress-026               8bfe0cd00b4fc5ae8842611ed16c58c5
corpus-stress/stress-027               cd0eda446eb9e907b454f0e8bd6a6022
corpus-stress/stress-028               17d126d76dbb69b8d79a20f02a87b22f
corpus-stress/stress-029               d5273ff98f072174354e3d475fe0c4bd
corpus-stress/stress-030               2ce86e462873892043bfad0b4ab87fab
corpus-stress/stress-031               f713013706d21bafa9c0022a55a34b2a
corpus-stress/stress-032               6d8f59d25627f02af5f8c8c6dcfbdf99
corpus-stress/stress-033               771adb07e655f73d6866889ae0dfdbc8
corpus-stress/stress-034               6680e608e12960dcd936e9bb3d1267b9
corpus-stress/stress-035               e06ca3021ec78cf2164dff8c8ec15c97
corpus-stress/stress-036               c1f39441bf93957279ba97496f8ecd55
corpus-stress/stress-037               17f0a40f234122ff39bd4eefbea48080
corpus-stress/stress-038               8c821c463709e2fc9708b9fd9bf3ed67
corpus-stress/stress-039               437c982e9bf4cacea755bdc7c353240d
corpus-stress/stress-040               6a57744cfbaf8bdec488f3db230af9f7
corpus-stress/stress-041               173bfaace1c1ed3cc4e4c1cb793c0999
corpus-stress/stress-042               7817f3b196c69de8e0cb81bd19706239
corpus-stress/stress-043               fc1e34921c8b917aae1d297410974b6d
corpus-stress/stress-044               0fb1193c78672453a0b47e596cd92c9e
corpus-stress/stress-045               87cf89c27271994559f00e912047d89c
corpus-stress/stress-046               b3480666679107935801a92021c5cdac
corpus-stress/stress-047               5a9ea78a071c0857c38a88f0c14f7512
corpus-stress/stress-048               d7a1f3aaee070f78728eb63ca5f26dad
corpus-stress/stress-049               2d247623103c40f4cd231cf42bb41abf
corpus-stress/stress-050               58c234adc240b6f1b57cae26166d7106
corpus-stress/stress-051               89a2e146f1292240644bb91f85907a0f
corpus-stress/stress-052               1d9f96ba68e271e71804ddaa0967d9ae
corpus-stress/stress-053               c01aae355502340e0c5b19ee851610af
corpus-stress/stress-054               136800fdeead04b93edb2586552fc7e8
corpus-stress/stress-055               e34c588f35ca10ec00d26dc04ea01c15
corpus-stress/stress-056               f2b6da20c2535459238e2c5c2113ed5a
corpus-stress/stress-057               c1beb59ce3b4e57bdd666c24c046156e
corpus-stress/stress-058               e5682ad3dc9d2a23c7c11387bb136cec
corpus-stress/stress-059               7b332b03f480f608aeff076f1871d621
corpus-stress/stress-060               40730fbd8a1cc0f889f806f19de0dcf3
corpus-stress/stress-061               a2c02514248d24d4fd9ff73bfb3438bd
corpus-stress/stress-062               50d286ed9072fcbb36fcfbc37080f1c4
corpus-stress/stress-063               7cbfbe2d412113a8e15881d05130abd3
corpus-stress/stress-064               c9cc9bdd40fb8207f00bc3f1e08973f6
corpus-stress/stress-065               4040802e749fff782ec803f441eeeb43
corpus-stress/stress-066               924512741e9d12b725150638955edbb0
corpus-stress/stress-067               c4d2fbf840043af090e563e91ba2dbe9
corpus-stress/stress-068               793466ad8b8fae730893d82bd21f4ace
corpus-stress/stress-069               d63e2789e626b0fcbc1fc7c97bfc5175
corpus-stress/stress-070               50eacaf16c93732e8c16f688cdbdf8b5
corpus-stress/stress-071               e746a401a3501deea956eea8d1b9e187
corpus-stress/stress-072               d4db4a72b8521dbf3651035b88f9d5c8
corpus-stress/stress-073               1edc176d857a7863ca6e39393e25730a
corpus-stress/stress-074               a07ee8f808316ad842041b444194279b
corpus-stress/stress-075               cddc0a9e9a0cb95398044175c0e7085c
corpus-stress/stress-076               896928f1a8cb894a06900799a5df1411
corpus-stress/stress-077               5633d4ea99fad48ddebd9ec26f94d510
corpus-stress/stress-078               640742db884a4c4040f32cfe3c4776dd
corpus-stress/stress-079               1ddcac07f2c620f4278445b7eb05c0fb
corpus-stress/stress-080               23d02641b6e573d197023f0238afa662
corpus-stress/stress-081               213b4766383e5216b0a6516dfab0fef1
corpus-stress/stress-082               21fce40f6c57f1047531823f3082d019
corpus-stress/stress-083               6ab60b8f2e6ad63d6c3cd0bce64ce414
corpus-stress/stress-084               faf10a4f74e8115c32952efebb24c483
corpus-stress/stress-085               b35df88523eb1dc4ed996bd2bfc4f911
corpus-stress/stress-086               6ba7530b3ae5889c822f32fe386d22a1
corpus-stress/stress-087               7d55da3bc32899bcdacea0e3ecd8d02f
corpus-stress/stress-088               a08dd8e623f66ebd29cafc0a9ab9ca20
corpus-stress/stress-089               15e300151f12546bce6e2fd7ca9cf3ac
corpus-stress/stress-090               14a98f7702d0fb67cc8c9cd577bcdd2c
corpus-stress/stress-091               9e492997f2c8dfca6f087c8321e825cf
corpus-stress/stress-092               f4210bd4b2ce3f85c7310570a89e889e
corpus-stress/stress-093               5010da0febd7349080a23fb415d666d3
corpus-stress/stress-094               9439032c18087d335e8bfe4b272c8b52
corpus-stress/stress-095               7e6c6fdba5985f108b640186208f6e3f
corpus-stress/stress-096               ee0e84e0701fe7916f65aecfdd826340
corpus-stress/stress-097               18258487f9579755ebef173b98af1f32
corpus-stress/stress-098               8421d7caf4adce196cf754968e4fe74e
corpus-stress/stress-099               6e7cb49daaa0e5beda52b658b068a685
corpus-stress/stress-100               fe6770a233057185e1a8b0eafdabe118
corpus-stress/stress-101               dee3ae9f9e68b666ae5cdc356aac9ee9
corpus-stress/stress-102               3ae639778d46cdceb5e8ad7e05e5b927
corpus-stress/stress-103               8edf974ec05a2278067dbd93c36b4ccb
corpus-stress/stress-104               18bff5dfb279a7899015567da413925a
corpus-stress/stress-105               18394c7f29e78af983b23b56f11cfe76
corpus-stress/stress-106               3b6527aff185dece45fd338b3d68fc87
corpus-stress/stress-107               e52dd83da46b946c10b3b7639027a9d3
corpus-stress/stress-108               14582d7c19123587238a5c953adb13fa
corpus-stress/stress-109               a24a9b436537d4cf0cfb867ff5755a04
corpus-stress/stress-110               c73df8d3ce02de8e15f7717c548fa3e5
corpus-stress/stress-111               c82d0ad190776f40b50a83ee5b729fdf
corpus-stress/stress-112               d525af04a262f4586060543ff757de1f
corpus-stress/stress-113               b122d1d6fc3b99732463fa868e9acdcc
corpus-stress/stress-114               d4c61bc55ec7c27f58d6be7faad9ea92
corpus-stress/stress-115               3b005966ebb7867fc7bf6a49ed6f8fac
corpus-stress/stress-116               1a204afa73f0f937c2fb0c3e2804d278
corpus-stress/stress-117               089680aa37c35ca31b9f22610e4618ba
corpus-stress/stress-118               3220e1d7aebe9ce8adf1ece488258e33
corpus-stress/stress-119               8ee97f97b9f5f1c1008f41109a9bc44c
corpus-stress/stress-120               e279a2e8821b6d325b5220ccaa1b229f
corpus-stress/stress-121               c2c17d6236915aa034dd4c7fc6da1447
corpus-stress/stress-122               d35f7e847c96996d32594df59020c43e
corpus-stress/stress-123               a1d97e4361e53b848b4e3250a84258f1
corpus-stress/stress-124               6423d8a95b68c2fd864d589753f158b0
corpus-stress/stress-125               c34e2979e5e891a919d630f4ef4aa3d6
corpus-stress/stress-126               381cd822b11786bcb43b4d3088cb4c03
corpus-stress/stress-127               2d6df192524c2dca23247bc7d80e23df
corpus-stress/stress-128               faf5fd418e97a1f5a3501ac6fb4f88d0
corpus-stress/stress-129               80434891ae1f831255e8d7ece407bbcd
corpus-stress/stress-130               d657c1cd2fc567f7698e1902a7dbed00
corpus-stress/stress-131               feef7afc83dec4aada29aa7596faed4b
corpus-stress/stress-132               b3e6b2b97ed433aebeb1516093a8bdb5
corpus-stress/stress-133               a328a786a6533fb7729cc1411c8cd5b4
corpus-stress/stress-134               2afec85b5b0fa20f87d9c0fb6330bfea
corpus-stress/stress-135               59c8ba5ea9a69c627f3b301be8787951
corpus-stress/stress-136               27cfc06e853f73b0818b6e80e4eafbdd
corpus-stress/stress-137               78353cf2c4c7b060661933425210018f
corpus-stress/stress-138               4dfe9241d3bee7dd492fa7f1159ec70a
corpus-stress/stress-139               9745583cd12a237ce1452916c38e71fb
corpus-stress/stress-140               04cc1cc0bdaab330553f638a50d0a7d5
corpus-stress/stress-141               9a52bb6fc96c85da99207592849c3cd5
corpus-stress/stress-142               0489995afc0e2a5e5f805e8d73148b0d
corpus-stress/stress-143               f247ffb36f33d1303e6a3173ad555799
corpus-stress/stress-144               5ad3f168b0631d517fdff473a0484e5e
corpus-stress/stress-145               d2112c7f2e2039312bec32946141d614
corpus-stress/stress-146               7abc49a745700c27eee32df494a05a58
corpus-stress/stress-147               f1ccd7f9c9bcd82753a88bc351d3f8d6
corpus-stress/stress-148               3b6624daedca5453d30f2512d898f33c
corpus-stress/stress-149               33a884e366e8bab9b08553cda0add8d0
corpus-stress/stress-150               81db6fc8882d9b96aed181cb0b6ec815
corpus-stress/stress-151               7d6dc67e1c11bc924ce2c9a9a03f534d
corpus-stress/stress-152               f40861bc57978c866c8ab21a67c7eef5
corpus-stress/stress-153               7bc1d3333aeb1508db4e271bcbfd53c9
corpus-stress/stress-154               a306584ad18a090fefee87d1cfacefc6
corpus-stress/stress-155               b905ecd5fd4aa5f35febbc19a99e18c8
corpus-stress/stress-156               2af538db10f71611a26c06e4391a761e
corpus-stress/stress-157               38b4d704e208322ebf17260357a650a9
corpus-stress/stress-158               52ed056098a7b48b4ab4e776340bd088
corpus-stress/stress-159               19e36b5e46b3788894fc04e25638e685
corpus-stress/stress-160               5a966e8768938ac8808c756a4edeb5e9
corpus-stress/stress-161               cdbee57ed194563d72ecd025730fed74
corpus-stress/stress-162               3806bdeed0cfcb327b8471f5184a4b3b
corpus-stress/stress-163               dce88775594242dfae9e497917302092
corpus-stress/stress-164               aa16d87f314840c2e97abcf2ae976903
corpus-stress/stress-165               1fbf290dd02e24633198db180e245fc6
corpus-stress/stress-166               45860c3281432a120ea0950e34870947
corpus-stress/stress-167               e9950af677f036b50e2d5e2bcd50363a
corpus-stress/stress-168               add1e57a4e1f5e3d246dd96ab9091f44
corpus-stress/stress-169               a121e230521d9d05d52a408c5b1bb9be
corpus-stress/stress-170               23f70e0d6ab914b2b9725ccfd98d433d
corpus-stress/stress-171               3b86f3dcb3ccaec0f1fdedc4247699d7
corpus-stress/stress-172               30cf6f9b4e2110152c10551143a902e2
corpus-stress/stress-173               0efc750d4acb7e90d99e0ca4c198a013
corpus-stress/stress-174               1e835d212db886f2b887a1401f1848f3
corpus-stress/stress-175               f4bebe47acc40f5ccf8a19b30ac5b3b9
corpus-stress/stress-176               b913d44cdeba78f5b6bcfee26c1e6ffc
corpus-stress/stress-177               3d47fdae64743df12a492db1e84d2356
corpus-stress/stress-178               0fc0e202974b5e1f0beb70817b624df8
corpus-stress/stress-179               dfc1804b8fc5b7ca3f217c9ce5319dd7
corpus-stress/stress-180               e33b54d20701c8cc9bf358c4918d4015
corpus-stress/stress-181               4079db56ca091532566e9f857c27d131
corpus-stress/stress-182               087918e395b89714f98bfeafbdb0b4c1
corpus-stress/stress-183               72347349e64b52ac51ff4ed9e37c2d0b
corpus-stress/stress-184               218acf35a4c3721ad45ab24b0ee2bc9b
corpus-stress/stress-185               9390956afe31d420e33b5a99b0819e2b
corpus-stress/stress-186               51ebbfde0ab12eaa29c0f23f250710dd
corpus-stress/stress-187               8d1669042cbd90784a0ea4deac37cfc3
corpus-stress/stress-188               1a8615c6c767d7979f97aeee65bd34dc
corpus-stress/stress-189               c74886d41ecb4101e4c1be84caafefd2
corpus-stress/stress-190               3b5fc960909187e7a3f71d63a43eb0ce
corpus-stress/stress-191               216ee4dd56914cffb67d8972284ba3bc
corpus-stress/stress-192               b160f90fcbc170a3410ae49027fcb7f8
corpus-stress/stress-193               e14b592d345a7adb952523ac66878c42
corpus-stress/stress-194               b220b3fb74c05c5ceeb73b15dfd76da3
corpus-stress/stress-195               c1a8e6fa1ee0b0e865bddcac2b987d7b
corpus-stress/stress-196               79643c1faee0f01ccbfec4e2b00dca0f
corpus-stress/stress-197               efcb202cf44c7f059e08012796b5ff94
corpus-stress/stress-198               2633a1f9b47406968216d1d475e76509
corpus-stress/stress-199               558ff9529bbf1def02408cd1383f21a2
corpus-big/big-000                     0d5956aa190906c0d019c95a82f5942d
corpus-big/big-001                     6070b3d0fbdca5bf3fa62a3df6f07f46
corpus-big/big-002                     55dba4a3c7a3437007da09b9d5a4a91d
corpus-big/big-003                     fd22340514d29abc32a8225451d75189
";

#[test]
fn corpus_canonical_hashes_match_the_pinned_table() {
    let mut pinned: Vec<(&str, &str)> = PINNED
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| line.split_once(' ').map(|(k, v)| (k, v.trim())).expect("`name hash` row"))
        .collect();
    let mut actual = Vec::new();
    for dir in ["corpus", "corpus-stress", "corpus-big"] {
        let corpus = Corpus::load(format!("tests/{dir}")).expect("corpus loads");
        for entry in &corpus.tests {
            let stem = entry.path.file_stem().and_then(|s| s.to_str()).expect("utf-8 file name");
            actual.push((format!("{dir}/{stem}"), canonical_hash(&entry.test).to_string()));
        }
    }
    pinned.sort_unstable();
    actual.sort_unstable();
    let mismatches: Vec<String> = actual
        .iter()
        .filter(|(name, hash)| !pinned.contains(&(name.as_str(), hash.as_str())))
        .map(|(name, hash)| format!("{name} {hash}"))
        .collect();
    assert!(mismatches.is_empty(), "canonical hashes moved:\n{}", mismatches.join("\n"));
    assert_eq!(pinned.len(), actual.len(), "every corpus program is pinned, and only those");
}
